""":class:`QueryService` — concurrent query serving over a `QueryEngine`.

The serving pipeline, request to response:

1. **Admission.**  ``submit`` stamps the request with a quality cap drawn
   from the :class:`ShedPolicy` given the queue's occupancy at that
   moment.  Under pressure the service never rejects — it descends the
   existing :class:`~repro.runtime.ladder.QualityLevel` degradation
   ladder instead, trading answer quality for instant service exactly as
   :class:`~repro.runtime.resilient.ResilientQueryEngine` does for
   failures.
2. **Freshness.**  Before an exact batch runs, a stale framework (the
   space's ``topology_epoch`` moved) is rebuilt under the bounded
   :class:`~repro.runtime.retry.RetryPolicy`.
3. **Caching.**  Answers live in an :class:`~repro.serve.cache.
   EpochLRUCache` keyed by the epoch they were computed at; PR 1's
   staleness machinery invalidates the whole cache for free.
4. **Batching.**  Cache misses are grouped by
   :func:`~repro.serve.batch.plan_batches` and executed over shared
   substrates (one M_idx row walk / one Dijkstra frontier per group).
5. **Metrics.**  Every stage feeds the
   :class:`~repro.serve.metrics.MetricsRegistry`; ``metrics_snapshot``
   returns the whole picture as one dict.
"""

from __future__ import annotations

import enum
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterable, List, Optional, Union

from repro.exceptions import (
    CorruptIndexError,
    DeadlineExceededError,
    ReproError,
    StaleIndexError,
)
from repro.index.framework import IndexFramework
from repro.overload.budget import RetryBudget, run_with_budget
from repro.overload.limiter import AdaptiveConcurrencyLimiter
from repro.queries.engine import QueryEngine
from repro.runtime.integrity import require_index_integrity
from repro.runtime.ladder import RUNGS, QualityLevel
from repro.runtime.resilient import ResilientQueryEngine
from repro.runtime.retry import RetryPolicy
from repro.serve.batch import execute_group, plan_batches
from repro.serve.breaker import CircuitBreaker
from repro.serve.cache import EpochLRUCache
from repro.serve.metrics import MetricsRegistry
from repro.serve.requests import QueryRequest, QueryResponse

_MISS = object()

#: Exact-path failures a circuit breaker counts and degrades around; other
#: errors (validation, unreachable positions, ...) still fail fast.
_BREAKER_FAULTS = (CorruptIndexError, DeadlineExceededError)


class ServiceState(enum.Enum):
    """Lifecycle states of a query service.

    ``STARTING → READY → DRAINING → STOPPED``; a supervised service
    (:class:`~repro.serve.lifecycle.SupervisedQueryService`) spends its
    ``STARTING`` phase in snapshot recovery and reports ``NOT_READY`` from
    its readiness probe until that completes.
    """

    STARTING = "starting"
    READY = "ready"
    DRAINING = "draining"
    STOPPED = "stopped"


@dataclass(frozen=True)
class ShedPolicy:
    """Admission-pressure thresholds mapped onto the degradation ladder.

    Occupancy is ``queued requests / queue_capacity`` at submit time.

    Attributes:
        degrade_at: occupancy at/above which requests are capped at the
            ``DOOR_COUNT`` rung (``None`` disables this band — the
            door-count evaluators are exact-ish but not cheap, so the
            default skips straight to shedding).
        shed_at: occupancy at/above which requests are capped at the
            instantaneous ``EUCLIDEAN`` rung.
    """

    degrade_at: Optional[float] = None
    shed_at: float = 1.0

    def quality_cap(self, occupancy: float) -> QualityLevel:
        """The highest ladder rung a request admitted at ``occupancy``
        may be served at."""
        if occupancy >= self.shed_at:
            return QualityLevel.EUCLIDEAN
        if self.degrade_at is not None and occupancy >= self.degrade_at:
            return QualityLevel.DOOR_COUNT
        return QualityLevel.EXACT_INDEXED


@dataclass
class _Ticket:
    """One admitted request travelling through the pipeline."""

    request: QueryRequest
    future: "Future[QueryResponse]"
    enqueued_at: float
    quality_cap: QualityLevel
    retries: int = 0
    shed: bool = field(init=False)

    def __post_init__(self) -> None:
        self.shed = self.quality_cap is not QualityLevel.EXACT_INDEXED


class QueryService:
    """A thread-pool query server with batching, caching, and shedding.

    Args:
        engine: the engine to serve — a :class:`QueryEngine`, a bare
            :class:`IndexFramework`, or a :class:`ResilientQueryEngine`
            (unwrapped to its inner engine; the service supplies its own
            staleness handling).
        workers: worker threads draining the admission queue.
        queue_capacity: nominal queue size; occupancy relative to it
            drives the :class:`ShedPolicy`.  Submissions block (brief
            backpressure) only beyond ``2 × queue_capacity``.
        max_batch: most requests one worker drains per round; groups
            formed within a round share work.
        cache_capacity: entry bound for the epoch-keyed distance cache.
        enable_cache / enable_batching: feature switches, mostly for
            benchmarking the layers separately.
        shed_policy: occupancy thresholds (default: shed to Euclidean at
            a full queue, no door-count band).
        rebuild_on_stale: rebuild the framework when the topology epoch
            moved (otherwise stale exact queries fail with
            :class:`~repro.exceptions.StaleIndexError`).
        retry_policy: bounds for those rebuilds.
        metrics: a registry to share with other components (one is
            created when omitted).
        breaker: a :class:`~repro.serve.breaker.CircuitBreaker` guarding
            the exact indexed path.  With one installed, exact-path
            failures (corrupt index, deadline, mid-query loss) route the
            affected requests to the breaker's fallback rung instead of
            failing them, and repeated failures suspend exact serving
            until a probe succeeds.  ``None`` (default) keeps the
            fail-fast behaviour.
        integrity_gate: run the §IV index invariant checks before every
            exact round.  Closes the silent-wrong-answer window: a
            corrupt M_d2d is *detected* (and, with a breaker, degraded
            around) rather than served.  Off by default — the check is
            O(doors²) per round.
        limiter: an :class:`~repro.overload.AdaptiveConcurrencyLimiter`.
            With one installed, shed occupancy is measured against its
            adaptive limit instead of the fixed ``queue_capacity``, and
            every served latency feeds its AIMD adjustment — admission
            tightens when measured p99 breaches the SLO.  The hard
            ``2 × queue_capacity`` backpressure bound stays.
        retry_budget: a :class:`~repro.overload.RetryBudget` shared by
            the staleness re-admissions and the rebuild retries.  When
            the budget denies, a stale ticket is answered exactly but
            index-free (``EXACT_FALLBACK``) instead of re-queued, and a
            rebuild raises its last error instead of retrying — retry
            storms cannot amplify an outage.
    """

    def __init__(
        self,
        engine: Union[QueryEngine, IndexFramework, ResilientQueryEngine],
        *,
        workers: int = 2,
        queue_capacity: int = 128,
        max_batch: int = 16,
        cache_capacity: int = 4096,
        enable_cache: bool = True,
        enable_batching: bool = True,
        shed_policy: Optional[ShedPolicy] = None,
        rebuild_on_stale: bool = True,
        retry_policy: Optional[RetryPolicy] = None,
        metrics: Optional[MetricsRegistry] = None,
        breaker: Optional[CircuitBreaker] = None,
        integrity_gate: bool = False,
        limiter: Optional[AdaptiveConcurrencyLimiter] = None,
        retry_budget: Optional[RetryBudget] = None,
    ) -> None:
        if isinstance(engine, ResilientQueryEngine):
            engine = engine.engine
        elif isinstance(engine, IndexFramework):
            engine = QueryEngine(engine)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {queue_capacity}"
            )
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.engine = engine
        self._workers = workers
        self._queue_capacity = queue_capacity
        self._max_batch = max_batch
        self._enable_batching = enable_batching
        self._shed_policy = shed_policy or ShedPolicy()
        self._rebuild_on_stale = rebuild_on_stale
        self._retry_policy = retry_policy or RetryPolicy()
        self.cache = EpochLRUCache(cache_capacity if enable_cache else 0)
        self.metrics = metrics or MetricsRegistry()
        self.breaker = breaker
        self._integrity_gate = integrity_gate
        self.limiter = limiter
        self.retry_budget = retry_budget
        if limiter is not None and limiter.metrics is not self.metrics:
            limiter.metrics = self.metrics
        if retry_budget is not None and retry_budget.metrics is not self.metrics:
            retry_budget.metrics = self.metrics
        if breaker is not None and breaker.metrics is not self.metrics:
            # One registry, one picture: transitions land next to the
            # serve counters they explain.
            breaker.metrics = self.metrics

        self._queue: Deque[_Ticket] = deque()
        self._cv = threading.Condition()
        self._rebuild_lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._stopping = False
        self._state = ServiceState.STARTING

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def state(self) -> ServiceState:
        """Where the service is in its lifecycle.

        ``DRAINING`` resolves to ``STOPPED`` once every worker has exited
        (relevant after a ``stop(wait=False)``).
        """
        with self._cv:
            if self._state is ServiceState.DRAINING and not any(
                thread.is_alive() for thread in self._threads
            ):
                self._state = ServiceState.STOPPED
            return self._state

    def start(self) -> "QueryService":
        """Spawn the worker threads (idempotent).

        After a ``stop(wait=False)`` the previous generation of workers
        may still be draining; restarting then first joins them, so a
        drained worker can never outlive its generation and keep
        consuming the new generation's queue.
        """
        with self._cv:
            drainers = list(self._threads) if self._stopping else []
            if not drainers and any(t.is_alive() for t in self._threads):
                return self
        for thread in drainers:
            thread.join()
        with self._cv:
            if any(thread.is_alive() for thread in self._threads):
                return self  # a concurrent start() won the race
            self._threads = []
            self._stopping = False
            self._state = ServiceState.READY
            for i in range(self._workers):
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"repro-serve-{i}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()
        return self

    def stop(self, wait: bool = True) -> None:
        """Stop accepting work; workers drain the queue, then exit."""
        with self._cv:
            self._stopping = True
            if self._state is ServiceState.READY:
                self._state = ServiceState.DRAINING
            self._cv.notify_all()
            threads = list(self._threads)
        if wait:
            for thread in threads:
                thread.join()
            with self._cv:
                self._state = ServiceState.STOPPED
                self._threads = []

    def __enter__(self) -> "QueryService":
        """Start the workers on context entry."""
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        """Drain and stop the workers on context exit."""
        self.stop(wait=True)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for a worker."""
        with self._cv:
            return len(self._queue)

    def submit(self, request: QueryRequest) -> "Future[QueryResponse]":
        """Admit one request; resolve its answer asynchronously.

        Never rejects: at/above the shed threshold the request is tagged
        for a cheaper degradation-ladder rung instead.  Blocks briefly
        only when the queue exceeds twice its nominal capacity (hard
        backpressure bound).
        """
        if not self._threads:
            self.start()
        future: "Future[QueryResponse]" = Future()
        with self._cv:
            while (
                len(self._queue) >= 2 * self._queue_capacity
                and not self._stopping
            ):
                self._cv.wait(timeout=0.05)
            capacity = (
                self.limiter.limit
                if self.limiter is not None
                else self._queue_capacity
            )
            occupancy = len(self._queue) / capacity
            cap = self._shed_policy.quality_cap(occupancy)
            ticket = _Ticket(request, future, time.perf_counter(), cap)
            self._queue.append(ticket)
            self._cv.notify()
        self.metrics.increment("serve.requests")
        if ticket.shed:
            self.metrics.increment("serve.shed")
        return future

    def serve(self, requests: Iterable[QueryRequest]) -> List[QueryResponse]:
        """Submit many requests and wait for all; responses in input order."""
        futures = [self.submit(request) for request in requests]
        return [future.result() for future in futures]

    def execute(self, request: QueryRequest) -> QueryResponse:
        """Serve one request synchronously on the calling thread.

        Bypasses the admission queue (so never sheds) but runs the same
        freshness / cache / batch pipeline as queued requests.
        """
        future: "Future[QueryResponse]" = Future()
        ticket = _Ticket(
            request, future, time.perf_counter(), QualityLevel.EXACT_INDEXED
        )
        self.metrics.increment("serve.requests")
        self._process([ticket])
        return future.result()

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Counters, latency percentiles, and cache stats as one dict."""
        snapshot = self.metrics.snapshot()
        snapshot["cache"] = self.cache.stats()
        if self.breaker is not None:
            snapshot["breaker"] = self.breaker.snapshot()
        return snapshot

    # ------------------------------------------------------------------
    # Worker pipeline
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            with self._cv:
                while not self._queue and not self._stopping:
                    self._cv.wait()
                if not self._queue and self._stopping:
                    return
                limit = self._max_batch if self._enable_batching else 1
                batch: List[_Ticket] = []
                while self._queue and len(batch) < limit:
                    batch.append(self._queue.popleft())
                self._cv.notify_all()  # wake blocked submitters
            self._process(batch)

    def _process(self, tickets: List[_Ticket]) -> None:
        exact: List[_Ticket] = []
        for ticket in tickets:
            if ticket.quality_cap is QualityLevel.EXACT_INDEXED:
                exact.append(ticket)
            else:
                self._serve_degraded(ticket)
        if not exact:
            return

        breaker = self.breaker
        if breaker is not None and not breaker.allow_exact():
            for ticket in exact:
                self._serve_degraded(
                    ticket, level=breaker.fallback, via_breaker=True
                )
            return

        try:
            self._ensure_fresh()
            if self._integrity_gate:
                require_index_integrity(self.engine.framework)
        except ReproError as exc:
            self._exact_path_failed(exact, exc)
            return
        framework = self.engine.framework
        epoch = framework.space.topology_epoch

        # Coalesce identical queries within the round: one execution fans
        # out to every ticket asking the same question.
        pending: "Dict[tuple, List[_Ticket]]" = {}
        for ticket in exact:
            key = ticket.request.cache_key()
            value = self.cache.get(key, epoch, _MISS)
            if value is not _MISS:
                self.metrics.increment("serve.cache_hits")
                self._complete(ticket, value, epoch=epoch, cached=True)
                continue
            self.metrics.increment("serve.cache_misses")
            waiters = pending.setdefault(key, [])
            if waiters:
                self.metrics.increment("serve.coalesced")
            waiters.append(ticket)

        if not pending:
            return
        representatives = [waiters[0].request for waiters in pending.values()]
        groups = plan_batches(framework.space, representatives)
        self.metrics.increment("serve.batches", len(groups))
        for group in groups:
            if group.shared:
                self.metrics.increment(
                    "serve.batched_requests", len(group.requests)
                )
            for request, value in execute_group(framework, group):
                waiters = pending[request.cache_key()]
                if isinstance(value, StaleIndexError) or (
                    isinstance(value, ReproError)
                    and framework.space.topology_epoch != epoch
                ):
                    # A mutation landed mid-query (a door can vanish
                    # between the scan and its use): re-queue, the retry
                    # runs at the new epoch.
                    for ticket in waiters:
                        self._retry(ticket, value)
                elif isinstance(value, Exception):
                    self._exact_path_failed(waiters, value)
                else:
                    if breaker is not None:
                        breaker.record_success()
                    if framework.space.topology_epoch == epoch:
                        self.cache.put(request.cache_key(), epoch, value)
                    for index, ticket in enumerate(waiters):
                        self._complete(
                            ticket,
                            value,
                            epoch=epoch,
                            batched=group.shared,
                            cached=index > 0,
                        )

    def _retry(self, ticket: _Ticket, exc: Exception) -> None:
        """Re-admit a ticket that hit mid-flight staleness (bounded)."""
        if not self._rebuild_on_stale or ticket.retries >= 2:
            self._fail(ticket, exc)
            return
        if (
            self.retry_budget is not None
            and not self.retry_budget.try_spend()
        ):
            # Retry storm underway: answer exactly but index-free
            # rather than re-amplify the rebuild queue.
            self._serve_degraded(ticket, level=QualityLevel.EXACT_FALLBACK)
            return
        ticket.retries += 1
        self.metrics.increment("serve.retries")
        if self._threads:
            with self._cv:
                self._queue.append(ticket)
                self._cv.notify()
        else:
            self._process([ticket])

    def _ensure_fresh(self) -> None:
        """Rebuild the framework when the topology epoch moved past it."""
        if self.engine.framework.is_fresh:
            return
        if not self._rebuild_on_stale:
            self.engine.framework.check_fresh()  # raises StaleIndexError
        with self._rebuild_lock:
            if not self.engine.framework.is_fresh:
                self.engine.framework = run_with_budget(
                    self._retry_policy,
                    self.engine.framework.rebuild,
                    self.retry_budget,
                )
                self.metrics.increment("serve.rebuilds")

    def _exact_path_failed(
        self, tickets: List[_Ticket], exc: Exception
    ) -> None:
        """Handle tickets whose exact indexed path failed.

        With a breaker installed and an index/deadline fault, the failure
        is counted and the tickets are served from the breaker's fallback
        rung; otherwise the original fail-fast behaviour applies.
        """
        breaker = self.breaker
        if breaker is not None and isinstance(exc, _BREAKER_FAULTS):
            breaker.record_failure()
            for ticket in tickets:
                self._serve_degraded(
                    ticket, level=breaker.fallback, via_breaker=True
                )
            return
        for ticket in tickets:
            self._fail(ticket, exc)

    def _serve_degraded(
        self,
        ticket: _Ticket,
        level: Optional[QualityLevel] = None,
        via_breaker: bool = False,
    ) -> None:
        """Answer from a lower ladder rung (never cached).

        ``level`` defaults to the ticket's admission-time quality cap;
        the breaker passes its fallback rung explicitly.
        """
        framework = self.engine.framework
        request = ticket.request
        epoch = framework.space.topology_epoch
        if level is None:
            level = ticket.quality_cap
        try:
            value = RUNGS[request.kind][level](framework, request, None)
        except ReproError as exc:
            self._fail(ticket, exc)
            return
        self.metrics.increment(
            "serve.breaker_degraded" if via_breaker else "serve.degraded"
        )
        self._complete(
            ticket, value, epoch=epoch, quality=level,
            shed=not via_breaker, breaker=via_breaker,
        )

    def _complete(
        self,
        ticket: _Ticket,
        value: Any,
        *,
        epoch: int,
        quality: QualityLevel = QualityLevel.EXACT_INDEXED,
        cached: bool = False,
        batched: bool = False,
        shed: bool = False,
        breaker: bool = False,
    ) -> None:
        latency_ms = (time.perf_counter() - ticket.enqueued_at) * 1000.0
        response = QueryResponse(
            request=ticket.request,
            value=value,
            quality=quality,
            served_epoch=epoch,
            cached=cached,
            batched=batched,
            shed=shed,
            breaker=breaker,
            latency_ms=latency_ms,
        )
        self.metrics.increment("serve.responses")
        self.metrics.observe("serve.latency_ms", latency_ms)
        self.metrics.observe(
            f"serve.latency_ms.{ticket.request.kind.value}", latency_ms
        )
        if self.limiter is not None:
            self.limiter.observe(latency_ms)
        if self.retry_budget is not None and not shed and not breaker:
            # Only full-quality answers refill the budget: a degraded
            # service must not finance the retries that keep it degraded.
            self.retry_budget.record_success()
        ticket.future.set_result(response)

    def _fail(self, ticket: _Ticket, exc: Exception) -> None:
        self.metrics.increment("serve.errors")
        ticket.future.set_exception(exc)
