"""repro.serve — concurrent query serving over the §IV-V machinery.

The paper (and :class:`~repro.queries.engine.QueryEngine`) answers one
query at a time; a deployed indoor service answers *workloads*.  This
package is the serving layer:

* :mod:`~repro.serve.requests` — typed :class:`QueryRequest` /
  :class:`QueryResponse` envelopes for range, kNN, and pt2pt queries;
* :mod:`~repro.serve.cache` — :class:`EpochLRUCache`, a bounded LRU
  distance cache keyed by topology epoch (PR 1's staleness machinery
  invalidates it for free);
* :mod:`~repro.serve.batch` — shared-work batched execution: same-host
  range/kNN groups share M_idx row walks, same-source pt2pt groups share
  the Algorithm 2/3 door expansions;
* :mod:`~repro.serve.service` — :class:`QueryService`, the thread-pool
  server with a bounded admission queue that sheds load by descending the
  :class:`~repro.runtime.ladder.QualityLevel` degradation ladder;
* :mod:`~repro.serve.lifecycle` — :class:`SupervisedQueryService`:
  supervised startup from a :class:`~repro.persist.SnapshotStore` (warm
  start, WAL replay, quarantine), a readiness probe that stays NOT_READY
  until recovery completes, and graceful drain-then-snapshot shutdown;
* :mod:`~repro.serve.metrics` — :class:`MetricsRegistry` (counters and
  latency histograms with p50/p95/p99 snapshots).

See ``docs/serving.md`` for the architecture and semantics, and
``python -m repro serve-bench`` for the closed-loop throughput benchmark.
"""

from repro.serve.batch import (
    BatchGroup,
    SharedDoorScans,
    batched_pt2pt_distances,
    execute_group,
    plan_batches,
)
from repro.serve.breaker import BreakerState, CircuitBreaker
from repro.serve.cache import EpochLRUCache
from repro.serve.lifecycle import SupervisedQueryService
from repro.serve.metrics import Counter, LatencyHistogram, MetricsRegistry
from repro.serve.requests import QueryKind, QueryRequest, QueryResponse
from repro.serve.service import QueryService, ServiceState, ShedPolicy

__all__ = [
    "BatchGroup",
    "BreakerState",
    "CircuitBreaker",
    "Counter",
    "EpochLRUCache",
    "LatencyHistogram",
    "MetricsRegistry",
    "QueryKind",
    "QueryRequest",
    "QueryResponse",
    "QueryService",
    "ServiceState",
    "SharedDoorScans",
    "ShedPolicy",
    "SupervisedQueryService",
    "batched_pt2pt_distances",
    "execute_group",
    "plan_batches",
]
