"""Sharded-serving benchmark: ``python -m repro shard-bench``.

Measures what the shared-nothing multi-process tier of :mod:`repro.shard`
buys over both the paper's sequential model and the in-process
:class:`~repro.serve.service.QueryService`.  The same seeded workload as
the serving benchmark is answered three times:

* **naive** — a sequential :class:`~repro.queries.engine.QueryEngine`
  loop (the paper's model);
* **service** — the thread-pooled, batched + cached ``QueryService``
  (GIL-bound: worker threads share one interpreter);
* **sharded** — a :class:`~repro.shard.service.ShardedQueryService` with
  real worker *processes*, each holding one placement slice of the
  object population over the shared-memory distance indexes.

The sharded tier's edge does not depend on spare cores (this benchmark
is routinely run on single-CPU containers).  It comes from three
serving-tier properties the thread pool cannot have:

* **distance-aware scatter pruning** — the router skips shards whose
  M_d2d lower bound proves they cannot contribute, so most queries touch
  one worker;
* **send combining** — concurrent submissions coalesce into batched pipe
  messages, amortising IPC;
* **horizontally-scaled caching** — every process (router and each
  worker) gets the same ``cache_capacity`` budget, so the fleet's
  aggregate cache covers a working set that a single budget-bound cache
  keeps evicting.

All three runs must produce identical answers (``mismatches`` must be
0, and the sharded run must stay ``EXACT_INDEXED`` with no partial
responses — ``degraded`` must be 0), so the interesting outputs are
throughput and the two speedups: ``speedup`` (sharded vs naive) and
``speedup_vs_service`` (sharded vs the thread tier).

Its subcommand, scales, gated ratios and hard checks are one record in
:mod:`repro.bench.table`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Dict

from repro.index.framework import IndexFramework
from repro.queries.engine import QueryEngine
from repro.serve.requests import QueryKind
from repro.serve.service import QueryService
from repro.shard.service import ShardedQueryService
from repro.bench.serve import _answer_naive, build_serve_workload
from repro.synthetic import (
    BuildingConfig,
    build_object_store,
    generate_building,
)


@dataclass(frozen=True)
class ShardScale:
    """Workload shape for one sharded-benchmark scale.

    Attributes:
        name: scale label echoed into the result.
        floors: synthetic building height.
        objects: indoor objects populating the store.
        distinct_positions: position-pool size (zipf-ish repetition,
            exactly like the serving benchmark).
        total_requests: workload length.
        shards: worker processes in the sharded tier.
        client_threads: concurrent submitters driving the router.
        service_workers / max_batch: thread-tier configuration for the
            comparison run.
        cache_capacity: per-process answer-cache budget.  The thread tier
            gets one cache of this size; the sharded tier gets the same
            budget in its router *and* in every worker process, so the
            fleet's aggregate capacity is what sharding actually deploys.
            Sized below the workload's distinct-key count on purpose: a
            single budget-bound cache must evict, the fleet need not.
        knn_k: ``k`` for the kNN requests.
        range_radius: radius (metres) for the range requests.
    """

    name: str
    floors: int
    objects: int
    distinct_positions: int
    total_requests: int
    shards: int
    client_threads: int
    service_workers: int
    max_batch: int
    cache_capacity: int
    knn_k: int
    range_radius: float


SHARD_QUICK = ShardScale(
    name="quick",
    floors=5,
    objects=8_000,
    distinct_positions=96,
    total_requests=960,
    shards=3,
    client_threads=12,
    service_workers=4,
    max_batch=16,
    cache_capacity=64,
    knn_k=10,
    range_radius=25.0,
)

SHARD_PAPER = ShardScale(
    name="paper",
    floors=10,
    objects=20_000,
    distinct_positions=200,
    total_requests=4_000,
    shards=4,
    client_threads=16,
    service_workers=4,
    max_batch=32,
    cache_capacity=128,
    knn_k=50,
    range_radius=30.0,
)


def measure_shard(scale: ShardScale, seed: int = 0) -> Dict[str, Any]:
    """Run the sharded benchmark; returns one JSON-ready result dict.

    Both served tiers get the same answer-cache capacity so the
    comparison isolates the execution model (threads vs processes), not
    the cache.  Workers start with ``spawn``; startup time is excluded
    from the measured walls.
    """
    building = generate_building(BuildingConfig(floors=scale.floors))
    building.space.distance_graph.precompute()
    store = build_object_store(building, scale.objects, seed=seed)
    framework = IndexFramework.build(building.space).with_objects(store)
    engine = QueryEngine(framework)
    requests = build_serve_workload(building, scale, seed=seed)
    mix = {
        kind.value: sum(1 for r in requests if r.kind is kind)
        for kind in QueryKind
    }
    cache_capacity = scale.cache_capacity

    start = time.perf_counter()
    naive_values = [_answer_naive(engine, request) for request in requests]
    naive_wall_s = time.perf_counter() - start

    service = QueryService(
        engine,
        workers=scale.service_workers,
        max_batch=scale.max_batch,
        queue_capacity=2 * scale.total_requests,  # never shed: exact answers
        cache_capacity=cache_capacity,
    )
    with service:
        start = time.perf_counter()
        service_responses = service.serve(requests)
        service_wall_s = time.perf_counter() - start

    sharded = ShardedQueryService(
        framework=framework,
        shards=scale.shards,
        client_threads=scale.client_threads,
        cache_capacity=cache_capacity,
        start_method="spawn",
    )
    with sharded:
        start = time.perf_counter()
        shard_responses = sharded.serve(requests)
        shard_wall_s = time.perf_counter() - start
        readiness = sharded.readiness()
    restarts = sum(
        detail["restarts"]
        for detail in readiness["supervision"]["shards"].values()
    )

    mismatches = sum(
        1
        for response, expected in zip(service_responses, naive_values)
        if response.value != expected
    ) + sum(
        1
        for response, expected in zip(shard_responses, naive_values)
        if response.value != expected
    )
    degraded = sum(
        1
        for response in shard_responses
        if not response.quality.is_exact or response.partial
    )

    naive_qps = len(requests) / naive_wall_s if naive_wall_s else 0.0
    service_qps = len(requests) / service_wall_s if service_wall_s else 0.0
    shard_qps = len(requests) / shard_wall_s if shard_wall_s else 0.0
    return {
        "scale": scale.name,
        "seed": seed,
        "cpus": os.cpu_count(),
        "floors": scale.floors,
        "objects": scale.objects,
        "requests": len(requests),
        "distinct_positions": scale.distinct_positions,
        "cache_capacity": cache_capacity,
        "mix": mix,
        "naive": {"wall_s": naive_wall_s, "qps": naive_qps},
        "service": {
            "wall_s": service_wall_s,
            "qps": service_qps,
            "workers": scale.service_workers,
            "max_batch": scale.max_batch,
        },
        "sharded": {
            "wall_s": shard_wall_s,
            "qps": shard_qps,
            "shards": scale.shards,
            "client_threads": scale.client_threads,
            "start_method": "spawn",
            "restarts": restarts,
            "degraded": degraded,
        },
        "speedup": shard_qps / naive_qps if naive_qps else 0.0,
        "speedup_vs_service": shard_qps / service_qps if service_qps else 0.0,
        "mismatches": mismatches,
    }


def render_shard_summary(result: Dict[str, Any]) -> str:
    """A short plain-text summary of one :func:`measure_shard` result."""
    sharded = result["sharded"]
    return "\n".join([
        f"shard-bench  scale={result['scale']}  seed={result['seed']}",
        f"  workload: {result['requests']} requests over "
        f"{result['distinct_positions']} positions "
        f"(mix {result['mix']})",
        f"  naive:    {result['naive']['qps']:.1f} qps "
        f"({result['naive']['wall_s']:.3f} s)",
        f"  service:  {result['service']['qps']:.1f} qps "
        f"({result['service']['wall_s']:.3f} s, "
        f"{result['service']['workers']} threads)",
        f"  sharded:  {sharded['qps']:.1f} qps "
        f"({sharded['wall_s']:.3f} s, {sharded['shards']} workers, "
        f"{sharded['client_threads']} clients)",
        f"  speedup:  {result['speedup']:.2f}x vs naive   "
        f"{result['speedup_vs_service']:.2f}x vs service",
        f"  mismatches: {result['mismatches']}   "
        f"degraded: {sharded['degraded']}   "
        f"restarts: {sharded['restarts']}",
    ])
