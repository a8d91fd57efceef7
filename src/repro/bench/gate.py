"""Benchmark regression gate: ``python -m repro bench --gate``.

Compares a fresh measurement against the benchmark artifacts committed
at the repo root (``BENCH_serve.json``, ``BENCH_shard.json``,
``BENCH_labels.json``, ``BENCH_overload.json``, ``BENCH_reconfig.json``)
and exits non-zero when the serving tiers, the labels backend, the
overload-control stack, or live reconfiguration regressed.  Two kinds of
checks:

* **ratio metrics** (``speedup``, ``speedup_vs_service``,
  ``bytes_ratio``, ``availability``) — compared with a relative
  tolerance (default 20%).
  Ratios divide out the host's absolute speed, so a fresh run on a
  slower machine still gates meaningfully; absolute qps/wall numbers are
  deliberately *not* compared across machines.
* **exactness metrics** (``mismatches``, ``degraded``) — hard equality
  against zero, no tolerance ever: a serving tier that returns one wrong
  or silently partial answer has failed regardless of how fast it is.

The fresh run replays the committed artifact's own scale and seed, so
the comparison is workload-identical by construction.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Relative slack for ratio metrics (fresh >= committed * (1 - tol)).
DEFAULT_TOLERANCE = 0.20

#: artifact file -> (ratio metric paths, exact-zero metric paths)
GATE_ARTIFACTS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "BENCH_serve.json": (("speedup",), ("mismatches",)),
    "BENCH_shard.json": (
        ("speedup", "speedup_vs_service"),
        ("mismatches", "sharded.degraded"),
    ),
    "BENCH_labels.json": (
        ("quick.bytes_ratio",),
        ("quick.mismatches",),
    ),
    "BENCH_overload.json": (
        ("protected.goodput_ratio_capped", "protected.slo_attainment"),
        ("mismatches",),
    ),
    "BENCH_reconfig.json": (
        ("rolling.availability", "rolling.answered_fraction"),
        ("rolling.mismatches", "rolling.epoch_mix_violations"),
    ),
}


def _lookup(result: Dict[str, Any], path: str) -> Any:
    value: Any = result
    for part in path.split("."):
        value = value[part]
    return value


def compare_benchmarks(
    artifact: str,
    committed: Dict[str, Any],
    fresh: Dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[Dict[str, Any]]:
    """Check ``fresh`` against ``committed`` for one artifact.

    Returns one check dict per gated metric:
    ``{"artifact", "metric", "kind", "committed", "fresh", "ok", "detail"}``.
    """
    if artifact not in GATE_ARTIFACTS:
        raise ValueError(f"no gate definition for artifact {artifact!r}")
    ratio_paths, exact_paths = GATE_ARTIFACTS[artifact]
    checks: List[Dict[str, Any]] = []
    for path in ratio_paths:
        committed_value = float(_lookup(committed, path))
        fresh_value = float(_lookup(fresh, path))
        floor = committed_value * (1.0 - tolerance)
        ok = fresh_value >= floor
        checks.append({
            "artifact": artifact,
            "metric": path,
            "kind": "ratio",
            "committed": committed_value,
            "fresh": fresh_value,
            "ok": ok,
            "detail": (
                f"fresh {fresh_value:.3f} vs floor {floor:.3f} "
                f"(committed {committed_value:.3f}, tolerance {tolerance:.0%})"
            ),
        })
    for path in exact_paths:
        fresh_value = int(_lookup(fresh, path))
        ok = fresh_value == 0
        checks.append({
            "artifact": artifact,
            "metric": path,
            "kind": "exact",
            "committed": 0,
            "fresh": fresh_value,
            "ok": ok,
            "detail": f"must be 0, measured {fresh_value}",
        })
    return checks


def _fresh_serve(committed: Dict[str, Any]) -> Dict[str, Any]:
    from repro.bench.serve import SERVE_PAPER, SERVE_QUICK, measure_serve

    scale = SERVE_PAPER if committed.get("scale") == "paper" else SERVE_QUICK
    return measure_serve(scale, seed=int(committed.get("seed", 0)))


def _fresh_shard(committed: Dict[str, Any]) -> Dict[str, Any]:
    from repro.bench.shard import SHARD_PAPER, SHARD_QUICK, measure_shard

    scale = SHARD_PAPER if committed.get("scale") == "paper" else SHARD_QUICK
    return measure_shard(scale, seed=int(committed.get("seed", 0)))


def _fresh_labels(committed: Dict[str, Any]) -> Dict[str, Any]:
    from repro.bench.labels import measure_labels_artifact

    return measure_labels_artifact(seed=int(committed.get("seed", 0)))


def _fresh_overload(committed: Dict[str, Any]) -> Dict[str, Any]:
    from repro.bench.overload import (
        OVERLOAD_PAPER,
        OVERLOAD_QUICK,
        measure_overload,
    )

    scale = (
        OVERLOAD_PAPER if committed.get("scale") == "paper" else OVERLOAD_QUICK
    )
    return measure_overload(scale, seed=int(committed.get("seed", 0)))


def _fresh_reconfig(committed: Dict[str, Any]) -> Dict[str, Any]:
    from repro.bench.reconfig import (
        RECONFIG_PAPER,
        RECONFIG_QUICK,
        measure_reconfig,
    )

    scale = (
        RECONFIG_PAPER if committed.get("scale") == "paper" else RECONFIG_QUICK
    )
    return measure_reconfig(scale, seed=int(committed.get("seed", 0)))


_FRESH_RUNNERS: Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]] = {
    "BENCH_serve.json": _fresh_serve,
    "BENCH_shard.json": _fresh_shard,
    "BENCH_labels.json": _fresh_labels,
    "BENCH_overload.json": _fresh_overload,
    "BENCH_reconfig.json": _fresh_reconfig,
}


def run_gate(
    root: Optional[Path] = None,
    tolerance: float = DEFAULT_TOLERANCE,
    artifacts: Optional[List[str]] = None,
) -> Dict[str, Any]:
    """Gate every committed artifact under ``root`` (default: cwd).

    Returns ``{"ok": bool, "checks": [...], "skipped": [...]}``; a
    missing artifact file is skipped (reported, not failed) so the gate
    stays usable in repos that commit only one of the benchmarks.
    """
    root = Path(root) if root is not None else Path.cwd()
    names = artifacts if artifacts is not None else sorted(GATE_ARTIFACTS)
    checks: List[Dict[str, Any]] = []
    skipped: List[str] = []
    for name in names:
        if name not in GATE_ARTIFACTS:
            raise ValueError(f"no gate definition for artifact {name!r}")
        path = root / name
        if not path.exists():
            skipped.append(name)
            continue
        with open(path) as handle:
            committed = json.load(handle)
        fresh = _FRESH_RUNNERS[name](committed)
        checks.extend(compare_benchmarks(name, committed, fresh, tolerance))
    return {
        "ok": all(check["ok"] for check in checks),
        "checks": checks,
        "skipped": skipped,
    }


def render_gate_report(report: Dict[str, Any]) -> str:
    """Plain-text gate summary, one line per check."""
    lines = []
    for check in report["checks"]:
        status = "PASS" if check["ok"] else "FAIL"
        lines.append(
            f"{status}  {check['artifact']}  {check['metric']}: "
            f"{check['detail']}"
        )
    for name in report["skipped"]:
        lines.append(f"SKIP  {name}: not committed")
    verdict = "GATE PASS" if report["ok"] else "GATE FAIL"
    lines.append(verdict)
    return "\n".join(lines)
