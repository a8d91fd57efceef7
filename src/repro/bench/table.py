"""The benchmark table: one record per committed ``BENCH_*.json`` artifact.

Each :class:`BenchSpec` declares everything the rest of the repository
needs to know about one benchmark: its ``python -m repro`` subcommand,
the artifact it backs, its scales by name, how to measure and summarise
it, the ratio metrics ``repro bench --gate`` holds against the committed
artifact, and the hard checks every fresh result must pass.  The
subcommand exits 0 iff every hard check holds; the gate runs the same
hard checks plus the ratio comparison (:mod:`repro.bench.gate`).  A new
benchmark is one new record in :data:`BENCHES`.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.bench import labels, overload, reconfig, serve, shard

#: ``(path, op, limit)``: ``result[path] <op> limit``, where a string
#: ``limit`` is itself a path into the same result (e.g. ``"slo_ms"``).
HardCheck = Tuple[str, str, Union[float, str]]

_OPS = {"==": operator.eq, "<=": operator.le, ">=": operator.ge}


@dataclass(frozen=True)
class BenchSpec:
    """One benchmark: its command, artifact, scales and checks.

    Attributes:
        name: the ``python -m repro`` subcommand.
        help: one-line subcommand help.
        artifact: the committed result file at the repository root.
        scales: scale records by name; ``"quick"`` is the default.
        measure: ``measure(scale, seed)`` returning a JSON-ready dict.
        render: plain-text summary of one result.
        ratios: dotted paths gated against the committed artifact with a
            relative tolerance (host speed divides out of a ratio).
        hard: conditions every fresh result must satisfy, no tolerance.
    """

    name: str
    help: str
    artifact: str
    scales: Mapping[str, Any]
    measure: Callable[[Any, int], Dict[str, Any]]
    render: Callable[[Dict[str, Any]], str]
    ratios: Tuple[str, ...]
    hard: Tuple[HardCheck, ...]

    def scale(self, name: Optional[str] = None) -> Any:
        """The scale called ``name`` (default: ``REPRO_BENCH_SCALE``);
        an unknown name falls back to quick."""
        if name is None:
            name = os.environ.get("REPRO_BENCH_SCALE", "quick")
        return self.scales.get(name.strip().lower(), self.scales["quick"])


def lookup(result: Dict[str, Any], path: str) -> Any:
    """The value at dotted ``path`` in a nested result dict."""
    value: Any = result
    for part in path.split("."):
        value = value[part]
    return value


def hard_checks(spec: BenchSpec, result: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Evaluate ``spec.hard`` on one result, one gate-report check each."""
    checks: List[Dict[str, Any]] = []
    for path, op, limit in spec.hard:
        fresh = lookup(result, path)
        bound = lookup(result, limit) if isinstance(limit, str) else limit
        named = f" ({limit})" if isinstance(limit, str) else ""
        checks.append({
            "artifact": spec.artifact,
            "metric": path,
            "kind": "hard",
            "committed": bound,
            "fresh": fresh,
            "ok": bool(_OPS[op](fresh, bound)),
            "detail": f"must be {op} {bound:g}{named}, measured {fresh:g}",
        })
    return checks


def _by_name(*scales: Any) -> Dict[str, Any]:
    return {scale.name: scale for scale in scales}


BENCHES: Tuple[BenchSpec, ...] = (
    BenchSpec(
        name="serve-bench",
        help="serving throughput: QueryService vs sequential QueryEngine",
        artifact="BENCH_serve.json",
        scales=_by_name(serve.SERVE_QUICK, serve.SERVE_PAPER),
        measure=serve.measure_serve,
        render=serve.render_serve_summary,
        ratios=("speedup",),
        hard=(("mismatches", "==", 0),),
    ),
    BenchSpec(
        name="shard-bench",
        help="serving throughput: sharded processes vs thread pool vs "
        "sequential engine",
        artifact="BENCH_shard.json",
        scales=_by_name(shard.SHARD_QUICK, shard.SHARD_PAPER),
        measure=shard.measure_shard,
        render=shard.render_shard_summary,
        ratios=("speedup", "speedup_vs_service"),
        hard=(("mismatches", "==", 0), ("sharded.degraded", "==", 0)),
    ),
    BenchSpec(
        name="labels-bench",
        help="distance backends: 2-hop labeling vs dense matrix "
        "(build time, resident bytes, bitwise agreement)",
        artifact="BENCH_labels.json",
        scales=_by_name(
            labels.LABELS_QUICK, labels.LABELS_PAPER, labels.LABELS_CAMPUS
        ),
        measure=labels.measure_labels,
        render=labels.render_labels_summary,
        ratios=("bytes_ratio",),
        hard=(("mismatches", "==", 0),),
    ),
    BenchSpec(
        name="overload-bench",
        help="flash-crowd overload: adaptive limiter + shedding vs an "
        "unprotected service driven past collapse",
        artifact="BENCH_overload.json",
        scales=_by_name(overload.OVERLOAD_QUICK, overload.OVERLOAD_PAPER),
        measure=overload.measure_overload,
        render=overload.render_overload_summary,
        ratios=("protected.goodput_ratio_capped", "protected.slo_attainment"),
        hard=(
            ("mismatches", "==", 0),
            ("protected.p99_ms", "<=", "slo_ms"),
            ("protected.goodput_ratio", ">=", 0.8),
        ),
    ),
    BenchSpec(
        name="reconfig-bench",
        help="live topology reconfiguration: epoch-fenced rolling update "
        "vs stop-the-world restart (availability, p99, exactness)",
        artifact="BENCH_reconfig.json",
        scales=_by_name(reconfig.RECONFIG_QUICK, reconfig.RECONFIG_PAPER),
        measure=reconfig.measure_reconfig,
        render=reconfig.render_reconfig_summary,
        ratios=("rolling.availability", "rolling.answered_fraction"),
        hard=(
            ("rolling.mismatches", "==", 0),
            ("rolling.epoch_mix_violations", "==", 0),
            ("rolling.unavailable", "==", 0),
        ),
    ),
)
