"""Open-loop overload benchmark: ``python -m repro overload-bench``.

Answers the question the overload-control stack (:mod:`repro.overload`)
exists for: *what happens when offered load exceeds capacity?*  A
flash-crowd workload (:func:`~repro.synthetic.workload.flash_crowd_workload`:
rush-hour arrival ramp, zipfian POI hotspots, bursty tracking updates) is
offered open-loop — requests are submitted on the workload's own clock
whether or not earlier answers came back — against two configurations:

* **unprotected** — a plain :class:`~repro.serve.service.QueryService`
  with an effectively unbounded queue and no limiter, swept across
  increasing offered-load multipliers until its p99 blows through the
  SLO (the *collapse point*: the queue grows without bound and every
  answer is late);
* **protected** — the same service with an
  :class:`~repro.overload.AdaptiveConcurrencyLimiter` + shed policy +
  :class:`~repro.overload.RetryBudget`, offered **2x the collapse
  point**.  Excess admissions are shed down the degradation ladder
  (fast, honest ``EUCLIDEAN`` answers flagged ``shed``), so the workers
  keep serving *exact* answers at capacity instead of queueing into
  uselessness.

Goodput counts only full-quality (paper-exact) answers delivered within
the SLO.  The headline outputs are ``protected.goodput_ratio`` (protected
goodput vs the best the unprotected service ever achieved — the bar is
0.8), ``protected.p99_ms`` (must stay inside ``slo_ms``) and
``mismatches`` — every exact protected answer is checked against the
paper's sequential engine.

Its subcommand, scales, gated ratios and hard checks are one record in
:mod:`repro.bench.table`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.index.framework import IndexFramework
from repro.queries.engine import QueryEngine
from repro.overload import AdaptiveConcurrencyLimiter, RetryBudget
from repro.runtime.ladder import QualityLevel
from repro.serve.requests import QueryResponse
from repro.serve.service import QueryService, ShedPolicy
from repro.synthetic import (
    BuildingConfig,
    FlashCrowdConfig,
    TimedOp,
    build_object_store,
    flash_crowd_workload,
    generate_building,
)
from repro.bench.serve import _answer_naive


@dataclass(frozen=True)
class OverloadScale:
    """Workload shape for one overload-benchmark scale.

    Attributes:
        name: scale label echoed into the result.
        floors: synthetic building height.
        objects: indoor objects populating the store.
        hotspots: zipfian POI hotspot pool size.
        requests_per_step: flash-crowd ops per offered-load step.
        stress_requests: flash-crowd ops for the protected stress run
            (longer, so the measurement covers sustained overload rather
            than one short burst).
        multipliers: offered-load sweep, as multiples of measured
            capacity *at the peak of the arrival ramp*.
        stress_factor: protected offered load as a multiple of the
            unprotected collapse multiplier.
        slo_ms: the latency objective the limiter defends.
        workers: service worker threads.
        queue_capacity: nominal queue bound for the protected service.
        limiter_initial: starting concurrency limit.
    """

    name: str
    floors: int
    objects: int
    hotspots: int
    requests_per_step: int
    stress_requests: int
    multipliers: Tuple[float, ...]
    stress_factor: float
    slo_ms: float
    workers: int
    queue_capacity: int
    limiter_initial: int


OVERLOAD_QUICK = OverloadScale(
    name="quick",
    floors=4,
    objects=600,
    hotspots=8,
    requests_per_step=800,
    stress_requests=1_600,
    multipliers=(0.5, 1.0, 2.0, 4.0),
    stress_factor=2.0,
    slo_ms=150.0,
    workers=2,
    queue_capacity=64,
    limiter_initial=32,
)

OVERLOAD_PAPER = OverloadScale(
    name="paper",
    floors=10,
    objects=5_000,
    hotspots=12,
    requests_per_step=4_000,
    stress_requests=8_000,
    multipliers=(0.5, 1.0, 2.0, 4.0, 8.0),
    stress_factor=2.0,
    slo_ms=200.0,
    workers=4,
    queue_capacity=128,
    limiter_initial=48,
)


_EXACT_QUALITIES = (QualityLevel.EXACT_INDEXED, QualityLevel.EXACT_FALLBACK)


def _is_exact(response: QueryResponse) -> bool:
    return response.quality in _EXACT_QUALITIES


def _p99(latencies_ms: Sequence[float]) -> float:
    if not latencies_ms:
        return 0.0
    ordered = sorted(latencies_ms)
    index = max(0, int(len(ordered) * 0.99) - 1) if len(ordered) >= 100 else (
        len(ordered) - 1
    )
    return ordered[index]


def _offer_open_loop(
    service: QueryService,
    stream: List[TimedOp],
    time_scale: float,
) -> Tuple[List[QueryResponse], float]:
    """Submit ``stream`` on its own (scaled) clock; gather everything.

    Open loop: when the service falls behind, submission does *not* slow
    down — that is the whole point of an overload benchmark.  Returns
    the responses in stream order plus the wall time from first submit
    to last answer.
    """
    futures = []
    start = time.perf_counter()
    for timed in stream:
        target = start + (timed.offered_at_ms * time_scale) / 1000.0
        delay = target - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        futures.append(service.submit(timed.op.to_request()))
    responses = [future.result() for future in futures]
    wall_s = time.perf_counter() - start
    return responses, wall_s


def _step_summary(
    responses: List[QueryResponse], wall_s: float, slo_ms: float
) -> Dict[str, Any]:
    exact = [r for r in responses if _is_exact(r)]
    exact_within = [r for r in exact if r.latency_ms <= slo_ms]
    shed = sum(1 for r in responses if r.shed)
    return {
        "requests": len(responses),
        "wall_s": wall_s,
        "offered_qps": len(responses) / wall_s if wall_s else 0.0,
        "p99_ms": _p99([r.latency_ms for r in exact]),
        "exact": len(exact),
        "shed": shed,
        "within_slo": len(exact_within),
        "goodput_qps": len(exact_within) / wall_s if wall_s else 0.0,
        "slo_attainment": (
            len(exact_within) / len(exact) if exact else 0.0
        ),
    }


def _flash_crowd_stream(
    space, scale: OverloadScale, count: int, seed: int
) -> Tuple[List[TimedOp], float]:
    """The workload stream plus its generated peak rate (ops/s)."""
    config = FlashCrowdConfig(count=count, hotspots=scale.hotspots)
    stream = flash_crowd_workload(space, config, seed=seed)
    peak_rate = (1000.0 / config.base_interval_ms) * config.peak_multiplier
    return stream, peak_rate


def measure_overload(scale: OverloadScale, seed: int = 0) -> Dict[str, Any]:
    """Run the overload benchmark; returns one JSON-ready result dict."""
    building = generate_building(BuildingConfig(floors=scale.floors))
    building.space.distance_graph.precompute()
    store = build_object_store(building, scale.objects, seed=seed)
    framework = IndexFramework.build(building.space).with_objects(store)
    engine = QueryEngine(framework)
    space = building.space

    step_stream, peak_rate = _flash_crowd_stream(
        space, scale, scale.requests_per_step, seed
    )

    # Capacity calibration: closed-loop throughput of the unprotected
    # service over the same op mix — the most exact answers per second
    # this host can produce.  All offered-load multipliers are relative
    # to it, so the collapse point is host-independent.
    calibration = QueryService(
        engine,
        workers=scale.workers,
        queue_capacity=4 * len(step_stream),
        enable_cache=False,
    )
    with calibration:
        start = time.perf_counter()
        calibration.serve([timed.op.to_request() for timed in step_stream])
        calibration_wall_s = time.perf_counter() - start
    capacity_qps = len(step_stream) / calibration_wall_s

    # Unprotected sweep: same flash crowd, offered faster and faster
    # (time_scale compresses the workload clock so the ramp's *peak*
    # rate hits multiplier x capacity).
    steps: List[Dict[str, Any]] = []
    collapse_multiplier: Optional[float] = None
    for multiplier in scale.multipliers:
        time_scale = peak_rate / (multiplier * capacity_qps)
        service = QueryService(
            engine,
            workers=scale.workers,
            queue_capacity=4 * len(step_stream),  # never sheds
            enable_cache=False,
        )
        with service:
            responses, wall_s = _offer_open_loop(
                service, step_stream, time_scale
            )
        summary = _step_summary(responses, wall_s, scale.slo_ms)
        summary["multiplier"] = multiplier
        steps.append(summary)
        if collapse_multiplier is None and summary["p99_ms"] > scale.slo_ms:
            collapse_multiplier = multiplier
    if collapse_multiplier is None:
        collapse_multiplier = scale.multipliers[-1]
    peak_goodput_qps = max(step["goodput_qps"] for step in steps)

    # Protected stress run: 2x the collapse point, limiter + shed policy
    # + retry budget installed, longer stream so the measurement covers
    # sustained overload.
    stress_multiplier = scale.stress_factor * collapse_multiplier
    stress_stream, stress_peak_rate = _flash_crowd_stream(
        space, scale, scale.stress_requests, seed
    )
    time_scale = stress_peak_rate / (stress_multiplier * capacity_qps)
    limiter = AdaptiveConcurrencyLimiter(
        slo_ms=scale.slo_ms,
        initial_limit=scale.limiter_initial,
        max_limit=4 * scale.queue_capacity,
    )
    budget = RetryBudget()
    protected = QueryService(
        engine,
        workers=scale.workers,
        queue_capacity=scale.queue_capacity,
        enable_cache=False,
        shed_policy=ShedPolicy(),
        limiter=limiter,
        retry_budget=budget,
    )
    with protected:
        responses, wall_s = _offer_open_loop(
            protected, stress_stream, time_scale
        )
    summary = _step_summary(responses, wall_s, scale.slo_ms)

    # Differential oracle over every full-quality protected answer: shed
    # answers are honestly degraded (flagged), but an *exact* answer
    # produced under overload must still equal the paper's sequential
    # engine, bit for bit.
    mismatches = 0
    for timed, response in zip(stress_stream, responses):
        if not _is_exact(response):
            continue
        if response.value != _answer_naive(engine, timed.op.to_request()):
            mismatches += 1

    goodput_ratio = (
        summary["goodput_qps"] / peak_goodput_qps if peak_goodput_qps else 0.0
    )
    return {
        "scale": scale.name,
        "seed": seed,
        "slo_ms": scale.slo_ms,
        "workers": scale.workers,
        "capacity_qps": capacity_qps,
        "unprotected": {
            "steps": steps,
            "collapse_multiplier": collapse_multiplier,
            "peak_goodput_qps": peak_goodput_qps,
        },
        "protected": {
            "multiplier": stress_multiplier,
            **summary,
            "goodput_ratio": goodput_ratio,
            # The gated form: the acceptance bar is "goodput >= 0.8x the
            # unprotected peak", so anything past 1.0 is surplus — capping
            # keeps the gate from demanding a lucky run's surplus forever.
            "goodput_ratio_capped": min(1.0, goodput_ratio),
            "slo_headroom": (
                scale.slo_ms / summary["p99_ms"] if summary["p99_ms"] else 0.0
            ),
            "limiter": limiter.snapshot(),
            "budget": budget.snapshot(),
        },
        "mismatches": mismatches,
    }


def render_overload_summary(result: Dict[str, Any]) -> str:
    """A short plain-text summary of one :func:`measure_overload` result."""
    lines = [
        f"overload-bench  scale={result['scale']}  seed={result['seed']}  "
        f"slo={result['slo_ms']:.0f} ms  "
        f"capacity={result['capacity_qps']:.0f} qps",
        "  unprotected sweep (peak offered vs capacity):",
    ]
    for step in result["unprotected"]["steps"]:
        lines.append(
            f"    x{step['multiplier']:<4}  p99 {step['p99_ms']:8.1f} ms   "
            f"goodput {step['goodput_qps']:7.1f} qps   "
            f"slo-attainment {step['slo_attainment']:.1%}"
        )
    lines.append(
        f"  collapse at x{result['unprotected']['collapse_multiplier']}   "
        f"peak goodput {result['unprotected']['peak_goodput_qps']:.1f} qps"
    )
    protected = result["protected"]
    lines.append(
        f"  protected @ x{protected['multiplier']}:  "
        f"p99 {protected['p99_ms']:.1f} ms   "
        f"goodput {protected['goodput_qps']:.1f} qps "
        f"({protected['goodput_ratio']:.2f}x peak)   "
        f"shed {protected['shed']}   "
        f"slo-attainment {protected['slo_attainment']:.1%}"
    )
    lines.append(f"  mismatches: {result['mismatches']}")
    return "\n".join(lines)
