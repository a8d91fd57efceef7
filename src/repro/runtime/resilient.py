"""The hardened query facade: :class:`ResilientQueryEngine`.

Wraps a :class:`~repro.queries.engine.QueryEngine` (or a bare
:class:`~repro.index.IndexFramework`) behind admission control and the
degradation ladder of :mod:`repro.runtime.ladder`:

1. **Validation** — each call becomes a
   :class:`~repro.serve.requests.QueryRequest`, whose checks reject NaN /
   infinite / negative radii, k < 1 and non-finite coordinates with
   :class:`~repro.exceptions.QueryError` before any work happens.
2. **Freshness** — if the space's topology epoch moved past the framework's
   build epoch, the indexes are rebuilt under the bounded
   :class:`~repro.runtime.retry.RetryPolicy` (or, when rebuilds are
   disabled or keep failing, the exact-indexed rung is skipped).
3. **Integrity** — M_d2d / DPT invariants are verified before the indexed
   rung is trusted; corruption routes the query down the ladder instead of
   returning silently wrong answers.
4. **Deadlines** — a per-query :class:`~repro.runtime.deadline.Deadline`
   is threaded through every rung's hot loop; on expiry the engine either
   degrades to the instantaneous Euclidean rung (default) or re-raises.

The rungs themselves are the shared :data:`~repro.runtime.ladder.RUNGS`
table; this module only decides which rungs to try and which failures
degrade.  Every answer is a :class:`~repro.runtime.ladder.ResilientResult`
tagging the rung that produced it, so callers always know what they got.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple, Union

from repro.exceptions import (
    CorruptIndexError,
    DeadlineExceededError,
    IndexError_,
    ReproError,
    StaleIndexError,
    UnknownEntityError,
)
from repro.geometry import Point
from repro.index.framework import IndexFramework
from repro.queries.engine import QueryEngine
from repro.runtime.deadline import Deadline, DeadlineLike, as_deadline
from repro.runtime.integrity import require_index_integrity
from repro.runtime.ladder import (
    RUNGS,
    QualityLevel,
    QueryKind,
    ResilientResult,
    RungFailure,
)
from repro.runtime.retry import RetryPolicy

#: Failures of the exact indexed rung that route a query down the ladder
#: rather than out to the caller.  ``UnknownEntityError`` covers dropped
#: DPT / matrix records; ``IndexError_`` covers staleness and corruption.
_INDEX_FAULTS = (IndexError_, UnknownEntityError)


class ResilientQueryEngine:
    """Distance-aware indoor queries that degrade instead of failing.

    Args:
        framework: the index framework (or an existing
            :class:`QueryEngine`) to harden.
        retry_policy: bounds for transparent stale-index rebuilds.
        rebuild_on_stale: rebuild when the topology epoch moved (otherwise
            the exact indexed rung is skipped for stale frameworks).
        rebuild_on_corrupt: also rebuild when integrity checks fail
            (default off: corruption usually indicates a bug worth
            surfacing in the result's ``failures`` rather than papering
            over with CPU time).
        verify_integrity: run the M_d2d / DPT invariant checks before each
            indexed answer.  Vectorised over the matrix — cheap for the
            building sizes of the paper's experiments; disable for very
            large deployments that audit out of band.
        degrade_on_deadline: on deadline expiry fall to cheaper rungs and
            ultimately the instantaneous Euclidean bound (default);
            when False, :class:`DeadlineExceededError` propagates.
    """

    def __init__(
        self,
        framework: Union[IndexFramework, QueryEngine],
        retry_policy: Optional[RetryPolicy] = None,
        rebuild_on_stale: bool = True,
        rebuild_on_corrupt: bool = False,
        verify_integrity: bool = True,
        degrade_on_deadline: bool = True,
    ) -> None:
        self.engine = (
            framework
            if isinstance(framework, QueryEngine)
            else QueryEngine(framework)
        )
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self.rebuild_on_stale = rebuild_on_stale
        self.rebuild_on_corrupt = rebuild_on_corrupt
        self.verify_integrity = verify_integrity
        self.degrade_on_deadline = degrade_on_deadline

    @classmethod
    def for_space(cls, space, objects=None, **options) -> "ResilientQueryEngine":
        """Build every index for ``space`` and wrap it resiliently."""
        return cls(QueryEngine.for_space(space, objects), **options)

    # ------------------------------------------------------------------
    # Introspection / delegation
    # ------------------------------------------------------------------
    @property
    def framework(self) -> IndexFramework:
        """The current (possibly rebuilt) index framework."""
        return self.engine.framework

    @property
    def space(self):
        """The underlying indoor space."""
        return self.engine.space

    def __getattr__(self, name):
        # Object maintenance and the rest of the plain-engine surface pass
        # straight through; only the query entry points are hardened here.
        return getattr(self.engine, name)

    # ------------------------------------------------------------------
    # Admission: freshness + integrity for the exact indexed rung
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        self.engine.framework = self.retry_policy.run(
            self.engine.framework.rebuild
        )

    def _admit_indexed_rung(
        self, failures: List[RungFailure]
    ) -> Tuple[bool, bool]:
        """Ensure the indexed rung is trustworthy.

        Returns ``(usable, rebuilt)``; on failure the reason is appended to
        ``failures`` and the ladder proceeds from the fallback rung.
        """
        rebuilt = False
        try:
            self.engine.framework.check_fresh()
        except StaleIndexError as exc:
            if self.rebuild_on_stale and self.retry_policy.max_attempts > 0:
                try:
                    self._rebuild()
                    rebuilt = True
                except ReproError as rebuild_exc:
                    failures.append(
                        RungFailure(QualityLevel.EXACT_INDEXED, rebuild_exc)
                    )
                    return False, rebuilt
            else:
                failures.append(RungFailure(QualityLevel.EXACT_INDEXED, exc))
                return False, rebuilt
        if self.verify_integrity:
            try:
                require_index_integrity(self.engine.framework)
            except CorruptIndexError as exc:
                if (
                    self.rebuild_on_corrupt
                    and self.retry_policy.max_attempts > 0
                ):
                    try:
                        self._rebuild()
                        rebuilt = True
                        require_index_integrity(self.engine.framework)
                    except ReproError as rebuild_exc:
                        failures.append(
                            RungFailure(
                                QualityLevel.EXACT_INDEXED, rebuild_exc
                            )
                        )
                        return False, rebuilt
                else:
                    failures.append(
                        RungFailure(QualityLevel.EXACT_INDEXED, exc)
                    )
                    return False, rebuilt
        return True, rebuilt

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def range_query(
        self, position: Point, radius: float, deadline: DeadlineLike = None
    ) -> ResilientResult:
        """Ladder-protected range query; ``value`` is the sorted id list."""
        from repro.serve.requests import QueryRequest

        request = QueryRequest.range_query(position, radius)
        return self._descend(request, as_deadline(deadline))

    def knn(
        self, position: Point, k: int = 1, deadline: DeadlineLike = None
    ) -> ResilientResult:
        """Ladder-protected kNN; ``value`` is ``[(object_id, distance)]``."""
        from repro.serve.requests import QueryRequest

        request = QueryRequest.knn(position, k)
        return self._descend(request, as_deadline(deadline))

    def distance(
        self, source: Point, target: Point, deadline: DeadlineLike = None
    ) -> ResilientResult:
        """Ladder-protected pt2pt distance; ``value`` is metres.

        The exact rung runs on the space's distance graph (not the M_d2d
        matrix), so index faults cannot corrupt it — only deadline pressure
        pushes this query down the ladder.
        """
        from repro.serve.requests import QueryRequest

        request = QueryRequest.pt2pt(source, target)
        return self._descend(request, as_deadline(deadline))

    def _descend(
        self, request: Any, deadline: Optional[Deadline]
    ) -> ResilientResult:
        """Try the :data:`~repro.runtime.ladder.RUNGS` of ``request.kind``
        best-first; the first rung that answers wins.

        Range / kNN pass the index admission first, and only their indexed
        rung degrades on index faults; pt2pt skips admission (its exact
        rung never reads M_d2d).  A deadline expiry on any rung degrades
        when ``degrade_on_deadline`` is set and propagates otherwise.  The
        Euclidean rung needs neither indexes nor time, so it always
        answers.
        """
        failures: List[RungFailure] = []
        usable, rebuilt, index_faults = True, False, ()
        if request.kind is not QueryKind.PT2PT:
            usable, rebuilt = self._admit_indexed_rung(failures)
            index_faults = _INDEX_FAULTS
        rungs = RUNGS[request.kind]
        for level in sorted(rungs, reverse=True):
            if level is QualityLevel.EXACT_INDEXED and not usable:
                continue
            try:
                value = rungs[level](self.framework, request, deadline)
            except DeadlineExceededError as exc:
                if not self.degrade_on_deadline:
                    raise
                failures.append(RungFailure(level, exc))
            except index_faults as exc:
                if level is not QualityLevel.EXACT_INDEXED:
                    raise
                failures.append(RungFailure(level, exc))
            else:
                return ResilientResult(value, level, tuple(failures), rebuilt)
        raise AssertionError("the Euclidean rung always answers")
