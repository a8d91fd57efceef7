"""Benchmark regression gate: ``python -m repro bench --gate``.

For every record of :data:`repro.bench.table.BENCHES` whose artifact is
committed at the repo root, replays the artifact's own scale and seed
(so the comparison is workload-identical by construction) and exits
non-zero when the fresh result regressed.  Two kinds of checks:

* **ratio metrics** (the record's ``ratios``: speedups, ``bytes_ratio``,
  goodput, availability) — compared with a relative tolerance (default
  20%).  Ratios divide out the host's absolute speed, so a fresh run on
  a slower machine still gates meaningfully; absolute qps/wall numbers
  are deliberately *not* compared across machines.
* **hard checks** (the record's ``hard``: zero mismatches, zero
  degraded or unavailable answers, p99 inside the SLO) — no tolerance
  ever, and the very conditions the bench's own subcommand exits on: a
  serving tier that returns one wrong or silently partial answer has
  failed regardless of how fast it is.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.bench import table
from repro.bench.table import BenchSpec, hard_checks, lookup

#: Relative slack for ratio metrics (fresh >= committed * (1 - tol)).
DEFAULT_TOLERANCE = 0.20


def compare_benchmarks(
    spec: BenchSpec,
    committed: Dict[str, Any],
    fresh: Dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[Dict[str, Any]]:
    """Check ``fresh`` against ``committed`` for one benchmark.

    Returns one check dict per gated metric:
    ``{"artifact", "metric", "kind", "committed", "fresh", "ok", "detail"}``.
    """
    checks: List[Dict[str, Any]] = []
    for path in spec.ratios:
        committed_value = float(lookup(committed, path))
        fresh_value = float(lookup(fresh, path))
        floor = committed_value * (1.0 - tolerance)
        checks.append({
            "artifact": spec.artifact,
            "metric": path,
            "kind": "ratio",
            "committed": committed_value,
            "fresh": fresh_value,
            "ok": fresh_value >= floor,
            "detail": (
                f"fresh {fresh_value:.3f} vs floor {floor:.3f} "
                f"(committed {committed_value:.3f}, tolerance {tolerance:.0%})"
            ),
        })
    return checks + hard_checks(spec, fresh)


def run_gate(
    root: Optional[Path] = None, tolerance: float = DEFAULT_TOLERANCE
) -> Dict[str, Any]:
    """Gate every committed artifact under ``root`` (default: cwd).

    Returns ``{"ok": bool, "checks": [...], "skipped": [...]}``; a
    missing artifact file is skipped (reported, not failed) so the gate
    stays usable in repos that commit only some of the benchmarks.
    """
    root = Path(root) if root is not None else Path.cwd()
    checks: List[Dict[str, Any]] = []
    skipped: List[str] = []
    for spec in table.BENCHES:
        path = root / spec.artifact
        if not path.exists():
            skipped.append(spec.artifact)
            continue
        with open(path) as handle:
            committed = json.load(handle)
        fresh = spec.measure(
            spec.scale(committed.get("scale", "quick")),
            int(committed.get("seed", 0)),
        )
        checks.extend(compare_benchmarks(spec, committed, fresh, tolerance))
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
