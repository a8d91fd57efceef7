"""Scatter-gather query routing with explicit partial-result semantics.

:class:`ScatterGatherRouter` turns per-shard exact answers into one
building-wide answer.  Its merges are *proofs*, not heuristics, because
the placement partitions the object population exactly:

* **range** — each healthy shard returns the sorted ids of *its* objects
  inside the radius; the slices are disjoint, so their sorted union is
  bit-identical to the single-process engine's answer.
* **kNN** — each healthy shard returns its local exact top-k as
  ``(id, distance)`` pairs; the global top-k is contained in the union of
  local top-ks, and re-sorting the union by ``(distance, id)`` reproduces
  the engine's tie-breaking exactly.
* **pt2pt** — every shard indexes the whole topology, so any one shard's
  answer is *the* answer; the router hedges sequentially from the shard
  owning the query floor to the rest.

The scatter itself is *distance-aware*: before fanning out, the router
bounds each shard's best possible contribution from below via the
framework's distance backend (``min_distance_between`` — a dense
submatrix minimum for M_d2d, a label join for :mod:`repro.labels`; both
produce bit-identical bounds).
Any indoor path from the query's host partition to an object hosted
elsewhere must leave through one of the partition's leaveable doors and
enter the object's partition through an enterable door, so

    dist(p, o)  >=  min over (d, d') of  M_d2d[d, d']

with ``d`` ranging over P2D⊢(π(p)) and ``d'`` over the enterable doors
of the shard's object-hosting partitions.  A range query therefore skips
every shard whose bound exceeds the radius, and kNN probes the
lowest-bound shard first, then visits only the shards whose bound does
not exceed the k-th local distance.  The bound is a true lower bound on
the indoor walking distance, so pruning never changes the answer — the
merges stay bit-identical to the single-process engine — it only removes
provably irrelevant work from the fan-out.

When a shard is down, hung past its timeout, or circuit-broken, the
router never fails the query and never silently omits the shard's slice:
it fills the gap from the Euclidean rung of the
:class:`~repro.runtime.ladder.QualityLevel` ladder using its local object
table, marks the response ``quality=EUCLIDEAN`` with the culprit shards
in ``missing_shards``, and lets the per-shard
:class:`~repro.serve.breaker.CircuitBreaker` stop hammering the corpse.
The rung guarantees still hold for the merged answer: a range fill is a
superset of the missing slice (Euclidean lower bound ≤ true distance) and
kNN / pt2pt report only lower-bound distances — exactly what the chaos
:class:`~repro.chaos.oracles.DifferentialOracle` checks.

**Epoch fencing.**  Under live reconfiguration
(:mod:`repro.shard.reconfig`) different workers may momentarily serve
different topology epochs.  Every worker reply carries the epoch it was
computed at (:class:`~repro.shard.supervisor.ShardAnswer`), and the
router enforces one invariant: *a merge never mixes epochs*.  The fence
for a request is the maximum of the supervisor's fence epoch (raised the
instant a round retargets the fleet) and every gathered reply's epoch; a
reply below the fence is retried once against its (possibly just
flipped) worker and otherwise discarded into the Euclidean gap fill —
degraded, never mixed.  The router's served epoch is therefore a
per-request property, monotonically non-decreasing, and the epoch-keyed
caches invalidate naturally the moment the fence rises.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures import wait as wait_futures
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.exceptions import ReproError, ShardUnavailableError
from repro.geometry import Point
from repro.index.framework import IndexFramework
from repro.overload.budget import RetryBudget
from repro.overload.hedge import HedgePolicy
from repro.runtime.ladder import (
    QualityLevel,
    euclidean_knn,
    euclidean_lower_bound,
    euclidean_range,
)
from repro.serve.breaker import CircuitBreaker
from repro.serve.cache import EpochLRUCache
from repro.serve.metrics import MetricsRegistry
from repro.serve.requests import QueryKind, QueryRequest, QueryResponse
from repro.shard.placement import FloorPlacement
from repro.shard.supervisor import ShardAnswer, ShardSupervisor

#: Everything a gather can fail with.  ``FutureTimeout`` is distinct
#: from the builtin ``TimeoutError`` before Python 3.11, and
#: ``Future.result`` raises the former.
_GATHER_FAULTS = (FutureTimeout, TimeoutError, ReproError, OSError)


class ScatterGatherRouter:
    """Cross-shard range / kNN / pt2pt with degraded partial results.

    Args:
        supervisor: the worker fleet to scatter over.
        placement: the partition→shard map (must match the supervisor's
            specs).
        framework: the supervisor-side framework the shards were carved
            from; the router keeps per-shard ``(id, position)`` tables
            from it for Euclidean gap filling.
        metrics: shared registry (router metrics under ``serve.*``,
            per-shard ones under ``shard.<id>.serve.*``).
        shard_timeout_s: per-shard answer budget; it is also forwarded to
            the worker as its query deadline, so a slow query degrades at
            both ends.
        failure_threshold / cooldown_ops: per-shard breaker tuning.
        cache_capacity: entries in the exact-answer cache (0 disables).
        hedge_policy: an :class:`~repro.overload.HedgePolicy`.  With one
            installed, a probe still pending after the policy's delay
            (p95-derived from observed probe latency) is re-issued to the
            same shard's worker and the first answer wins — because both
            probes ask the same worker population the same question, the
            merge stays bit-identical to the unhedged path.  ``None``
            (default) keeps plain single-probe gathers.
        retry_budget: a :class:`~repro.overload.RetryBudget` that hedges
            and pt2pt re-scatters draw from, so a struggling fleet is not
            pelted with duplicates; shard successes refill it.
    """

    def __init__(
        self,
        supervisor: ShardSupervisor,
        placement: FloorPlacement,
        framework: IndexFramework,
        *,
        metrics: Optional[MetricsRegistry] = None,
        shard_timeout_s: float = 2.0,
        failure_threshold: int = 3,
        cooldown_ops: int = 8,
        cache_capacity: int = 1024,
        hedge_policy: Optional[HedgePolicy] = None,
        retry_budget: Optional[RetryBudget] = None,
    ) -> None:
        self.supervisor = supervisor
        self.placement = placement
        self.metrics = metrics or MetricsRegistry()
        self.shard_timeout_s = shard_timeout_s
        self.hedge_policy = hedge_policy
        self.retry_budget = retry_budget
        self._probe_ms = self.metrics.histogram("serve.probe_ms")
        # The served epoch is a *per-request* property: the monotone floor
        # below rises with every fence a merge observes, and the
        # supervisor's fence epoch rises the moment a reconfig round
        # retargets the fleet.  (It was pinned at construction before the
        # tier could reconfigure live.)
        self._epoch_lock = threading.Lock()
        self._floor = framework.space.topology_epoch
        self._reconfiguring = False
        self._cache = EpochLRUCache(cache_capacity)
        self._breakers: Dict[int, CircuitBreaker] = {}
        self._shard_metrics: Dict[int, Any] = {}
        self._objects: Dict[int, List[Tuple[int, Point]]] = {}
        store = framework.objects
        for shard_id in placement.shard_ids:
            scoped = self.metrics.scoped(f"shard.{shard_id}")
            self._shard_metrics[shard_id] = scoped
            self._breakers[shard_id] = CircuitBreaker(
                failure_threshold=failure_threshold,
                cooldown_ops=cooldown_ops,
                fallback=QualityLevel.EUCLIDEAN,
                metrics=scoped,
            )
            self._objects[shard_id] = []
        for obj in store:
            partition_id = store.host_partition_id(obj.object_id)
            shard_id = placement.shard_for_partition(partition_id)
            self._objects[shard_id].append((obj.object_id, obj.position))
        for table in self._objects.values():
            table.sort()
        self._bounds: Dict[int, Dict[int, float]] = {}
        self._bounds_lock = threading.Lock()
        self._install_pruning_state(framework)

    def _install_pruning_state(self, framework: IndexFramework) -> None:
        """(Re)build the distance-aware pruning state from ``framework``:
        the distance backend plus, per shard, the enterable doors of its
        object-hosting partitions.  Works for any DistanceBackend via
        ``min_distance_between`` (dense submatrix min for the matrix,
        vectorised label join for labels).  Per-partition bounds are
        memoised lazily in ``_bounds``; called again by
        :meth:`finish_reconfig` because the bounds are epoch-sensitive."""
        store = framework.objects
        shard_partitions: Dict[int, Set[int]] = {
            shard_id: set() for shard_id in self.placement.shard_ids
        }
        for obj in store:
            partition_id = store.host_partition_id(obj.object_id)
            shard_partitions[
                self.placement.shard_for_partition(partition_id)
            ].add(partition_id)
        topology = framework.space.topology
        known_doors = set(framework.distance_index.door_ids)
        shard_doors = {}
        for shard_id, partitions in shard_partitions.items():
            doors: Set[int] = set()
            for partition_id in partitions:
                doors |= topology.enterable_doors(partition_id)
            shard_doors[shard_id] = sorted(doors & known_doors)
        with self._bounds_lock:
            self._topology = topology
            self._rtree = framework.rtree
            self._distance_index = framework.distance_index
            self._known_doors = known_doors
            self._shard_doors = shard_doors
            self._bounds.clear()

    # ------------------------------------------------------------------
    # Reconfiguration hooks (driven by ReconfigCoordinator)
    # ------------------------------------------------------------------
    def begin_reconfig(self) -> None:
        """Pause distance-aware pruning for the duration of a round.

        The pruning bounds are computed from one epoch's distance index
        and door graph; while the fleet straddles two epochs a bound from
        either side could wrongly prune a shard for the other.  Unpruned
        scatters stay correct at any epoch — the merge proofs never
        depended on pruning."""
        with self._epoch_lock:
            self._reconfiguring = True
        with self._bounds_lock:
            self._bounds.clear()

    def abort_reconfig(self) -> None:
        """Re-enable pruning after a round that mutated nothing."""
        with self._epoch_lock:
            self._reconfiguring = False

    def finish_reconfig(self, framework: IndexFramework) -> None:
        """Swap in the new epoch's pruning state and resume pruning."""
        self._install_pruning_state(framework)
        with self._epoch_lock:
            self._reconfiguring = False

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    def execute(self, request: QueryRequest) -> QueryResponse:
        """Serve one request; never raises for shard failures.

        Healthy fleet → ``EXACT_INDEXED``, bit-identical to the
        single-process engine.  Any missing shard → ``EUCLIDEAN`` with
        ``missing_shards`` naming the gap — degraded, never silently
        wrong.
        """
        start = time.perf_counter()
        self.metrics.increment("serve.requests")
        epoch = self.served_epoch
        cached = self._cache.get(request.cache_key(), epoch, None)
        if cached is not None:
            self.metrics.increment("serve.cache_hits")
            return self._respond(
                request, cached, QualityLevel.EXACT_INDEXED, (),
                start, epoch, (epoch,), from_cache=True,
            )
        self.metrics.increment("serve.cache_misses")
        if request.kind is QueryKind.RANGE:
            value, quality, missing, fence, epochs = self._range(request)
        elif request.kind is QueryKind.KNN:
            value, quality, missing, fence, epochs = self._knn(request)
        else:
            value, quality, missing, fence, epochs = self._pt2pt(request)
        if quality is QualityLevel.EXACT_INDEXED:
            self._cache.put(request.cache_key(), fence, value)
        else:
            self.metrics.increment("serve.degraded")
        return self._respond(
            request, value, quality, missing, start, fence, epochs
        )

    def shed_execute(self, request: QueryRequest) -> QueryResponse:
        """Answer at the Euclidean rung from the router's local object
        tables without touching the fleet (the admission limiter's shed
        path).

        The rung guarantee matches the gap fill: range answers are
        supersets (Euclidean bound ≤ true walk), kNN / pt2pt report
        lower-bound distances — degraded, never silently wrong.
        """
        start = time.perf_counter()
        self.metrics.increment("serve.requests")
        self.metrics.increment("serve.shed")
        fleet = itertools.chain.from_iterable(self._objects.values())
        if request.kind is QueryKind.RANGE:
            value: Any = euclidean_range(fleet, request.position, request.radius)
        elif request.kind is QueryKind.KNN:
            value = euclidean_knn(fleet, request.position, request.k)
        else:
            value = euclidean_lower_bound(request.position, request.target)
        self.metrics.increment("serve.degraded")
        return self._respond(
            request, value, QualityLevel.EUCLIDEAN, (), start,
            self.served_epoch, (), shed=True,
        )

    def breaker_snapshot(self) -> Dict[int, Dict[str, Any]]:
        """Per-shard breaker state."""
        return {
            shard: breaker.snapshot()
            for shard, breaker in sorted(self._breakers.items())
        }

    def reset_breakers(self) -> None:
        """Force every shard breaker CLOSED (heal / campaign probe)."""
        for breaker in self._breakers.values():
            breaker.reset()

    @property
    def served_epoch(self) -> int:
        """The epoch a request admitted *now* would be fenced at: the
        monotone floor of observed merges, lifted by the supervisor's
        fence epoch the instant a reconfig round begins."""
        with self._epoch_lock:
            floor = self._floor
        return max(floor, self.supervisor.fence_epoch)

    def _raise_floor(self, epoch: int) -> None:
        with self._epoch_lock:
            if epoch > self._floor:
                self._floor = epoch

    def _reconfig_in_flight(self) -> bool:
        with self._epoch_lock:
            return self._reconfiguring

    # ------------------------------------------------------------------
    # Scatter-gather internals
    # ------------------------------------------------------------------
    def _respond(
        self,
        request: QueryRequest,
        value: Any,
        quality: QualityLevel,
        missing: Tuple[int, ...],
        start: float,
        epoch: int,
        reply_epochs: Tuple[int, ...],
        from_cache: bool = False,
        shed: bool = False,
    ) -> QueryResponse:
        latency_ms = (time.perf_counter() - start) * 1000.0
        self.metrics.increment("serve.responses")
        self.metrics.observe("serve.latency_ms", latency_ms)
        self.metrics.observe(
            f"serve.latency_ms.{request.kind.value}", latency_ms
        )
        return QueryResponse(
            request=request,
            value=value,
            quality=quality,
            served_epoch=epoch,
            cached=from_cache,
            shed=shed,
            breaker=bool(missing),
            latency_ms=latency_ms,
            missing_shards=missing,
            reply_epochs=reply_epochs,
        )

    def _apply_fence(
        self,
        raw: Dict[int, ShardAnswer],
        request: QueryRequest,
    ) -> Tuple[Dict[int, Any], List[int], int, Tuple[int, ...]]:
        """Enforce the single-epoch merge invariant over gathered replies.

        The fence is the max of the supervisor's fence epoch and every
        reply's epoch.  A reply below it is retried once against its
        worker (which has usually just committed the flip) and otherwise
        dropped into the gap fill.  Returns ``(values by shard, fenced
        shard ids, fence epoch, distinct merged epochs)`` — the last is
        the evidence the chaos EpochOracle audits.
        """
        fence = self.served_epoch
        for answer in raw.values():
            fence = max(fence, answer.epoch)
        fenced: List[int] = []
        retried: Set[int] = set()
        in_flight = self._reconfig_in_flight()
        for _ in range(3):  # re-fence when a retry lands above the fence
            stale = [s for s, a in raw.items() if a.epoch < fence]
            if not stale:
                break
            for shard_id in stale:
                answer = None
                if shard_id not in retried and not in_flight:
                    retried.add(shard_id)
                    answer = self._retry_fenced(shard_id, request)
                if answer is not None and answer.epoch >= fence:
                    raw[shard_id] = answer
                    fence = max(fence, answer.epoch)
                else:
                    raw.pop(shard_id)
                    fenced.append(shard_id)
                    self.metrics.increment("reconfig.fenced_replies")
                    self._shard_metrics[shard_id].increment("serve.fenced")
        self._raise_floor(fence)
        epochs = tuple(sorted({a.epoch for a in raw.values()}))
        return (
            {s: a.value for s, a in raw.items()},
            sorted(fenced),
            fence,
            epochs,
        )

    def _retry_fenced(self, shard_id: int, request: QueryRequest):
        """One immediate re-probe of a shard whose reply was fenced —
        its worker has usually just committed the new epoch, so the
        retry recovers an exact merge instead of degrading."""
        self.metrics.increment("reconfig.retried_replies")
        try:
            future = self.supervisor.submit(
                shard_id, request, budget_s=self.shard_timeout_s
            )
            return future.result(timeout=self.shard_timeout_s)
        except _GATHER_FAULTS:
            return None

    def _scatter(
        self, shard_ids: List[int], request: QueryRequest
    ) -> Tuple[Dict[int, ShardAnswer], List[int]]:
        """Fan ``request`` out to ``shard_ids`` and gather within the
        timeout. Returns (epoch-stamped answers by shard, missing shard
        ids); the caller runs the gathered replies through
        :meth:`_apply_fence` before merging."""
        futures: Dict[int, Future] = {}
        missing: List[int] = []
        for shard_id in shard_ids:
            breaker = self._breakers[shard_id]
            if not breaker.allow_exact():
                missing.append(shard_id)
                continue
            shard_metrics = self._shard_metrics[shard_id]
            try:
                futures[shard_id] = self.supervisor.submit(
                    shard_id, request, budget_s=self.shard_timeout_s
                )
                shard_metrics.increment("serve.requests")
            except ShardUnavailableError:
                shard_metrics.increment("serve.unavailable")
                breaker.record_failure()
                missing.append(shard_id)
        answers: Dict[int, ShardAnswer] = {}
        scattered_at = time.monotonic()
        deadline = scattered_at + self.shard_timeout_s
        for shard_id, future in futures.items():
            breaker = self._breakers[shard_id]
            shard_metrics = self._shard_metrics[shard_id]
            try:
                answers[shard_id] = self._gather_one(
                    shard_id, request, future, deadline
                )
            except _GATHER_FAULTS:
                shard_metrics.increment("serve.failures")
                breaker.record_failure()
                missing.append(shard_id)
            else:
                self._probe_ms.observe(
                    (time.monotonic() - scattered_at) * 1000.0
                )
                shard_metrics.increment("serve.responses")
                breaker.record_success()
                if self.retry_budget is not None:
                    self.retry_budget.record_success()
        return answers, sorted(missing)

    def _gather_one(
        self,
        shard_id: int,
        request: QueryRequest,
        future: Future,
        deadline: float,
    ) -> Any:
        """One shard's answer, hedged when a policy is installed.

        Waits out the hedge delay on the primary probe; if it is still
        pending, pays one retry-budget token to re-issue the probe to the
        same shard (its restarted worker, after a casualty) and returns
        whichever answer lands first.  Raises a :data:`_GATHER_FAULTS`
        member when no probe answers inside the deadline — the caller
        turns that into the Euclidean gap fill, exactly as unhedged.
        """
        remaining = deadline - time.monotonic()
        if self.hedge_policy is None:
            return future.result(timeout=max(0.0, remaining))
        delay = self.hedge_policy.delay_s(self._probe_ms, self.shard_timeout_s)
        if delay >= remaining:
            return future.result(timeout=max(0.0, remaining))
        try:
            return future.result(timeout=max(0.0, delay))
        except (FutureTimeout, TimeoutError):
            pass
        hedge = self._launch_hedge(shard_id, request, deadline)
        if hedge is None:
            return future.result(timeout=max(0.0, deadline - time.monotonic()))
        return self._first_answer(future, hedge, deadline)

    def _launch_hedge(
        self, shard_id: int, request: QueryRequest, deadline: float
    ) -> Optional[Future]:
        """Re-issue a straggler's probe; None when denied or impossible."""
        if self.retry_budget is not None and not self.retry_budget.try_spend():
            return None
        try:
            hedge = self.supervisor.submit(
                shard_id,
                request,
                budget_s=max(0.0, deadline - time.monotonic()),
            )
        except ShardUnavailableError:
            # Worker mid-restart: nothing to hedge to.  The Euclidean
            # gap fill covers the shard if the primary stays silent.
            self._shard_metrics[shard_id].increment("serve.unavailable")
            return None
        self.metrics.increment("overload.hedged")
        self._shard_metrics[shard_id].increment("serve.hedges")
        return hedge

    def _first_answer(
        self, primary: Future, hedge: Future, deadline: float
    ) -> Any:
        """First successful result of the two probes (first-answer-wins).

        The loser is cancelled best-effort; if one probe errors the
        other is still waited out.  Raises the last probe error, or the
        timeout, when neither answers.
        """
        pending = [primary, hedge]
        last_error: Optional[BaseException] = None
        while pending:
            remaining = deadline - time.monotonic()
            done, _ = wait_futures(
                pending,
                timeout=max(0.0, remaining),
                return_when=FIRST_COMPLETED,
            )
            if not done:
                break  # deadline: neither probe answered in time
            for future in list(pending):
                if future not in done:
                    continue
                pending.remove(future)
                try:
                    value = future.result(timeout=0)
                except _GATHER_FAULTS as exc:
                    last_error = exc
                    continue
                for loser in pending:
                    loser.cancel()
                    self.metrics.increment("overload.hedge_cancelled")
                if future is hedge:
                    self.metrics.increment("overload.hedge_wins")
                return value
        if last_error is not None:
            raise last_error
        raise FutureTimeout(
            "neither primary nor hedge probe answered within the deadline"
        )

    def _populated(self) -> List[int]:
        """Shards that own at least one object (empty shards cannot
        contribute to range/kNN answers and are never scattered to)."""
        return [
            shard_id
            for shard_id in self.placement.shard_ids
            if self._objects[shard_id]
        ]

    def _shard_bounds(
        self, position: Point
    ) -> Optional[Dict[int, float]]:
        """Lower bounds on the indoor distance from ``position`` to any
        object of each shard (0.0 for the position's own shard; ``inf``
        when no door path can reach the shard's partitions).  ``None``
        when the position cannot be located, which disables pruning."""
        partition_id = self._rtree.locate(position)
        if partition_id is None:
            return None
        with self._bounds_lock:
            bounds = self._bounds.get(partition_id)
        if bounds is not None:
            return bounds
        leave_doors = sorted(
            self._topology.leaveable_doors(partition_id) & self._known_doors
        )
        try:
            home = self.placement.shard_for_partition(partition_id)
        except KeyError:
            # A partition added by a reconfig round the placement has not
            # absorbed yet: no sound bound exists, so don't prune.
            return None
        bounds = {}
        for shard_id in self.placement.shard_ids:
            doors = self._shard_doors[shard_id]
            if shard_id == home:
                bounds[shard_id] = 0.0
            else:
                bounds[shard_id] = self._distance_index.min_distance_between(
                    leave_doors, doors
                )
        with self._bounds_lock:
            self._bounds[partition_id] = bounds
        return bounds

    def _range(
        self, request: QueryRequest
    ) -> Tuple[List[int], QualityLevel, Tuple[int, ...], int, Tuple[int, ...]]:
        populated = self._populated()
        fence_at_plan = self.served_epoch
        bounds = (
            None
            if self._reconfig_in_flight()
            else self._shard_bounds(request.position)
        )
        if bounds is None:
            targets = populated
        else:
            # Sound with no slack: a bound is a min of D(ds, dt) terms,
            # and every walking distance to an object of that shard is a
            # float sum of non-negative terms that includes one of them.
            # Float addition of non-negative terms is monotone, so that
            # distance >= bound > radius, and the engine's exact
            # ``<= radius`` predicate excludes the object too.
            targets = [s for s in populated if bounds[s] <= request.radius]
        pruned = len(targets) < len(populated)
        if pruned:
            self.metrics.increment(
                "serve.shards_pruned", len(populated) - len(targets)
            )
        raw, missing = self._scatter(targets, request)
        values, fenced, fence, epochs = self._apply_fence(raw, request)
        if pruned and fence > fence_at_plan:
            # The pruning decision used bounds from the epoch this query
            # was planned at, but the fence moved mid-flight — a pruned
            # shard might matter at the new epoch.  One unpruned redo is
            # sound at any epoch (the merge proofs never needed pruning).
            self.metrics.increment("reconfig.replans")
            raw, missing = self._scatter(populated, request)
            values, fenced, fence, epochs = self._apply_fence(raw, request)
        merged: List[int] = []
        for ids in values.values():
            merged.extend(ids)
        gap = sorted(set(missing) | set(fenced))
        for shard_id in gap:
            merged.extend(
                euclidean_range(
                    self._objects[shard_id], request.position, request.radius
                )
            )
        quality = (
            QualityLevel.EXACT_INDEXED if not gap else QualityLevel.EUCLIDEAN
        )
        return sorted(merged), quality, tuple(gap), fence, epochs

    def _knn(
        self, request: QueryRequest
    ) -> Tuple[
        List[Tuple[int, float]], QualityLevel, Tuple[int, ...], int,
        Tuple[int, ...],
    ]:
        populated = self._populated()
        fence_at_plan = self.served_epoch
        bounds = (
            None
            if self._reconfig_in_flight()
            else self._shard_bounds(request.position)
        )
        pruned = False
        if bounds is None or len(populated) <= 1:
            raw, missing = self._scatter(populated, request)
        else:
            # Two-phase scatter: probe the lowest-bound shard, then visit
            # only shards whose bound can still improve its k-th local
            # distance.  A pruned shard's objects all sit strictly beyond
            # that distance, so they cannot enter the global top-k even
            # under (distance, id) tie-breaking.
            order = sorted(populated, key=lambda s: (bounds[s], s))
            first = order[0]
            raw, missing = self._scatter([first], request)
            answer = raw.get(first)
            if answer is not None and len(answer.value) >= request.k:
                kth = answer.value[-1][1]
                rest = [s for s in order[1:] if bounds[s] <= kth]
            else:
                rest = order[1:]
            if len(rest) < len(order) - 1:
                pruned = True
                self.metrics.increment(
                    "serve.shards_pruned", len(order) - 1 - len(rest)
                )
            if rest:
                more, missing_rest = self._scatter(rest, request)
                raw.update(more)
                missing = sorted(missing + missing_rest)
        values, fenced, fence, epochs = self._apply_fence(raw, request)
        if pruned and fence > fence_at_plan:
            # Pruning (both the bound table and the k-th-distance cut)
            # was decided at the plan epoch; the fence moved, so redo
            # once with the full fan-out — sound at any epoch.
            self.metrics.increment("reconfig.replans")
            raw, missing = self._scatter(populated, request)
            values, fenced, fence, epochs = self._apply_fence(raw, request)
        ranked: List[Tuple[float, int]] = []
        for pairs in values.values():
            ranked.extend((dist, oid) for oid, dist in pairs)
        gap = sorted(set(missing) | set(fenced))
        for shard_id in gap:
            # The missing shard's objects enter at their Euclidean lower
            # bound: reported distances stay <= the true walk, the rung
            # guarantee the differential oracle checks.  Only its k
            # Euclidean-nearest can reach the merged top k.
            ranked.extend(
                (dist, oid)
                for oid, dist in euclidean_knn(
                    self._objects[shard_id], request.position, request.k
                )
            )
        ranked.sort()
        quality = (
            QualityLevel.EXACT_INDEXED if not gap else QualityLevel.EUCLIDEAN
        )
        return (
            [(oid, dist) for dist, oid in ranked[: request.k]],
            quality,
            tuple(gap),
            fence,
            epochs,
        )

    def _pt2pt(
        self, request: QueryRequest
    ) -> Tuple[float, QualityLevel, Tuple[int, ...], int, Tuple[int, ...]]:
        preferred = self.placement.preferred_shard_for_floor(
            request.position.floor
        )
        order = [preferred] + [
            shard_id
            for shard_id in self.placement.shard_ids
            if shard_id != preferred
        ]
        failed: List[int] = []
        fence = self.served_epoch
        for index, shard_id in enumerate(order):
            if (
                index > 0
                and self.retry_budget is not None
                and not self.retry_budget.try_spend()
            ):
                # Every shard after the preferred one is a re-scatter;
                # when the budget is broke, stop hammering the fleet and
                # answer at the Euclidean bound.
                break
            raw, missing = self._scatter([shard_id], request)
            values, fenced, fence, epochs = self._apply_fence(raw, request)
            if shard_id in values:
                # Any shard's pt2pt answer is exact over the full
                # topology at the fence epoch; earlier casualties don't
                # degrade it.
                return (
                    float(values[shard_id]),
                    QualityLevel.EXACT_INDEXED,
                    (),
                    fence,
                    epochs,
                )
            failed.extend(missing)
            failed.extend(fenced)
        value = euclidean_lower_bound(request.position, request.target)
        return (
            value,
            QualityLevel.EUCLIDEAN,
            tuple(sorted(set(failed))),
            fence,
            (),
        )
