"""Closed-loop serving benchmark: ``python -m repro serve-bench``.

Measures what the :mod:`repro.serve` layer buys over the paper's
one-query-at-a-time model.  A seeded workload of range / kNN / pt2pt
requests with zipf-ish position repetition (real indoor services see hot
spots: lobbies, gates, food courts) is answered twice:

* **naive** — a sequential loop over the exact indexed rung of
  :data:`~repro.runtime.ladder.RUNGS` (Algorithms 4-6), one full index
  walk per request (the paper's model);
* **service** — a :class:`~repro.serve.service.QueryService` with the
  epoch-keyed cache and shared-work batching enabled.

Both runs must produce identical answers (``mismatches`` must be 0);
the interesting outputs are throughput, speedup, cache hit-rate, and
latency percentiles.

Its subcommand, scales, gated ratios and hard checks are one record in
:mod:`repro.bench.table`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Dict, List

from repro.index.framework import IndexFramework
from repro.runtime.ladder import RUNGS, QualityLevel
from repro.serve.requests import QueryKind, QueryRequest
from repro.serve.service import QueryService
from repro.synthetic import (
    BuildingConfig,
    SyntheticBuilding,
    build_object_store,
    generate_building,
    random_positions,
)


@dataclass(frozen=True)
class ServeScale:
    """Workload shape for one serving-benchmark scale.

    Attributes:
        name: scale label echoed into the result.
        floors: synthetic building height.
        objects: indoor objects populating the store.
        distinct_positions: size of the position pool requests draw from
            (zipf-ish: position ``i`` is drawn with weight ``1/(i+1)``).
        total_requests: workload length.
        workers: service worker threads.
        max_batch: most requests one worker drains per round.
        knn_k: ``k`` for the kNN requests.
        range_radius: radius (metres) for the range requests.
    """

    name: str
    floors: int
    objects: int
    distinct_positions: int
    total_requests: int
    workers: int
    max_batch: int
    knn_k: int
    range_radius: float


SERVE_QUICK = ServeScale(
    name="quick",
    floors=5,
    objects=1_000,
    distinct_positions=48,
    total_requests=480,
    workers=4,
    max_batch=16,
    knn_k=10,
    range_radius=25.0,
)

SERVE_PAPER = ServeScale(
    name="paper",
    floors=10,
    objects=10_000,
    distinct_positions=200,
    total_requests=4_000,
    workers=4,
    max_batch=32,
    knn_k=50,
    range_radius=30.0,
)


def build_serve_workload(
    building: SyntheticBuilding, scale: ServeScale, seed: int = 0
) -> List[QueryRequest]:
    """A deterministic request stream with zipf-ish position repetition.

    Positions come from a pool of ``scale.distinct_positions`` random
    indoor positions; request ``i`` draws its position with weight
    ``1/(rank+1)`` so a few hot positions dominate (what gives a cache a
    fair, realistic shot).  Kinds are mixed 40% range / 40% kNN /
    20% pt2pt; pt2pt targets are drawn from the same pool.
    """
    pool = random_positions(building, scale.distinct_positions, seed=seed)
    rng = random.Random(seed + 1)
    ranks = list(range(len(pool)))
    weights = [1.0 / (rank + 1) for rank in ranks]
    requests: List[QueryRequest] = []
    for _ in range(scale.total_requests):
        (index,) = rng.choices(ranks, weights=weights, k=1)
        position = pool[index]
        roll = rng.random()
        if roll < 0.4:
            requests.append(QueryRequest.range_query(position, scale.range_radius))
        elif roll < 0.8:
            requests.append(QueryRequest.knn(position, k=scale.knn_k))
        else:
            (target_index,) = rng.choices(ranks, weights=weights, k=1)
            requests.append(QueryRequest.pt2pt(position, pool[target_index]))
    return requests


def measure_serve(scale: ServeScale, seed: int = 0) -> Dict[str, Any]:
    """Run the serving benchmark; returns one JSON-ready result dict.

    The dict carries the workload shape, wall time and throughput for
    both runs, the speedup, the service's cache / counter / latency
    snapshot, and ``mismatches`` — how many service answers differed
    from the naive sequential answers (must be 0: batching and caching
    are exactness-preserving).
    """
    building = generate_building(BuildingConfig(floors=scale.floors))
    building.space.distance_graph.precompute()
    store = build_object_store(building, scale.objects, seed=seed)
    framework = IndexFramework.build(building.space).with_objects(store)
    requests = build_serve_workload(building, scale, seed=seed)
    mix = {
        kind.value: sum(1 for r in requests if r.kind is kind)
        for kind in QueryKind
    }

    start = time.perf_counter()
    naive_values = [
        RUNGS[request.kind][QualityLevel.EXACT_INDEXED](framework, request, None)
        for request in requests
    ]
    naive_wall_s = time.perf_counter() - start

    service = QueryService(
        framework,
        workers=scale.workers,
        max_batch=scale.max_batch,
        queue_capacity=2 * scale.total_requests,  # never shed: exact answers
        cache_capacity=4 * scale.distinct_positions,
    )
    with service:
        start = time.perf_counter()
        responses = service.serve(requests)
        serve_wall_s = time.perf_counter() - start
    snapshot = service.metrics_snapshot()

    mismatches = sum(
        1
        for response, expected in zip(responses, naive_values)
        if response.value != expected
    )

    naive_qps = len(requests) / naive_wall_s if naive_wall_s else 0.0
    serve_qps = len(requests) / serve_wall_s if serve_wall_s else 0.0
    return {
        "scale": scale.name,
        "seed": seed,
        "floors": scale.floors,
        "objects": scale.objects,
        "requests": len(requests),
        "distinct_positions": scale.distinct_positions,
        "mix": mix,
        "naive": {"wall_s": naive_wall_s, "qps": naive_qps},
        "service": {
            "wall_s": serve_wall_s,
            "qps": serve_qps,
            "workers": scale.workers,
            "max_batch": scale.max_batch,
        },
        "speedup": serve_qps / naive_qps if naive_qps else 0.0,
        "mismatches": mismatches,
        "cache": snapshot["cache"],
        "counters": snapshot["counters"],
        "latency": snapshot["latency"],
    }


def render_serve_summary(result: Dict[str, Any]) -> str:
    """A short plain-text summary of one :func:`measure_serve` result."""
    lines = [
        f"serve-bench  scale={result['scale']}  seed={result['seed']}",
        f"  workload: {result['requests']} requests over "
        f"{result['distinct_positions']} positions "
        f"(mix {result['mix']})",
        f"  naive:    {result['naive']['qps']:.1f} qps "
        f"({result['naive']['wall_s']:.3f} s)",
        f"  service:  {result['service']['qps']:.1f} qps "
        f"({result['service']['wall_s']:.3f} s, "
        f"{result['service']['workers']} workers)",
        f"  speedup:  {result['speedup']:.2f}x   "
        f"cache hit-rate: {result['cache']['hit_rate']:.1%}   "
        f"mismatches: {result['mismatches']}",
    ]
    latency = result["latency"].get("serve.latency_ms")
    if latency:
        lines.append(
            f"  latency:  p50 {latency['p50_ms']:.2f} ms   "
            f"p95 {latency['p95_ms']:.2f} ms   "
            f"p99 {latency['p99_ms']:.2f} ms"
        )
    return "\n".join(lines)
