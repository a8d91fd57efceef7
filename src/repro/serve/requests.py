"""Typed request / response envelopes for the serving layer.

:class:`QueryRequest` is the wire format of :mod:`repro.serve`: one
immutable, validated description of a range, kNN, or point-to-point
distance query.  Requests are hashable up to their :meth:`~QueryRequest.
cache_key`, which deliberately excludes the ``request_id`` so that two
identical queries submitted by different clients share one cache entry and
one batch slot.

:class:`QueryResponse` carries the answer plus its serving provenance —
the :class:`~repro.runtime.ladder.QualityLevel` it was produced at, the
topology epoch it is valid for, and whether it came from the cache, a
shared batch, or a load-shedding rung.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from repro.exceptions import QueryError
from repro.geometry import Point
from repro.queries.checks import require_finite, require_finite_position
from repro.runtime.ladder import QualityLevel, QueryKind


_id_lock = threading.Lock()
_id_counter = itertools.count(1)


def _next_request_id() -> int:
    """Process-unique monotone request id (thread-safe)."""
    with _id_lock:
        return next(_id_counter)


@dataclass(frozen=True)
class QueryRequest:
    """One distance-aware query, validated at construction.

    Use the :meth:`range_query`, :meth:`knn`, and :meth:`pt2pt` factories
    rather than the raw constructor; they fill in the kind and check the
    per-kind required fields.

    Attributes:
        kind: which query to run.
        position: the query position (range / kNN) or the source (pt2pt).
        radius: range radius in metres (``RANGE`` only).
        k: neighbour count (``KNN`` only).
        target: destination position (``PT2PT`` only).
        request_id: process-unique id, excluded from the cache key.
    """

    kind: QueryKind
    position: Point
    radius: Optional[float] = None
    k: Optional[int] = None
    target: Optional[Point] = None
    request_id: int = field(default_factory=_next_request_id, compare=False)

    def __post_init__(self) -> None:
        """Validate the per-kind required fields eagerly."""
        require_finite_position(self.position)
        if self.kind is QueryKind.RANGE:
            if self.radius is None:
                raise QueryError("range request needs a radius")
            require_finite(self.radius, "range radius")
            if self.radius < 0:
                raise QueryError(
                    f"range radius must be non-negative, got {self.radius}"
                )
        elif self.kind is QueryKind.KNN:
            if self.k is None or self.k < 1:
                raise QueryError(f"kNN request needs k >= 1, got {self.k}")
        elif self.kind is QueryKind.PT2PT:
            if self.target is None:
                raise QueryError("pt2pt request needs a target position")
            require_finite_position(self.target, "target position")

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    @classmethod
    def range_query(cls, position: Point, radius: float) -> "QueryRequest":
        """A range query Q_r(position, radius)."""
        return cls(QueryKind.RANGE, position, radius=radius)

    @classmethod
    def knn(cls, position: Point, k: int = 1) -> "QueryRequest":
        """A k-nearest-neighbour query at ``position``."""
        return cls(QueryKind.KNN, position, k=k)

    @classmethod
    def pt2pt(cls, source: Point, target: Point) -> "QueryRequest":
        """A point-to-point minimum walking distance query."""
        return cls(QueryKind.PT2PT, source, target=target)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def cache_key(self) -> Tuple:
        """A hashable identity for the *answer* this request asks for.

        Excludes ``request_id``: identical queries from different callers
        map to the same entry of the serving layer's distance cache.  The
        topology epoch is *not* part of this key — the cache pairs every
        entry with the epoch it was computed at (see
        :class:`repro.serve.cache.EpochLRUCache`).
        """
        p = self.position
        if self.kind is QueryKind.RANGE:
            return ("range", p.x, p.y, p.floor, self.radius)
        if self.kind is QueryKind.KNN:
            return ("knn", p.x, p.y, p.floor, self.k)
        t = self.target
        return ("pt2pt", p.x, p.y, p.floor, t.x, t.y, t.floor)


@dataclass(frozen=True)
class QueryResponse:
    """A served answer plus its provenance.

    Attributes:
        request: the request this answers.
        value: the answer — a sorted id list (range), ``(id, distance)``
            pairs nearest-first (kNN), or metres (pt2pt).
        quality: the degradation-ladder rung that produced ``value``
            (``EXACT_INDEXED`` unless load shedding kicked in).
        served_epoch: the space's topology epoch the answer is valid for.
        cached: the answer came from the distance cache.
        batched: the answer was computed inside a shared-work batch of
            two or more requests.
        shed: admission pressure downgraded this request to a cheaper
            ladder rung before execution.
        breaker: an open circuit breaker routed this request to its
            fallback rung (exact serving was suspended or just failed).
        latency_ms: submit-to-completion wall-clock time.
        missing_shards: shards that failed to contribute exact results
            (sharded serving only; empty for single-process services).
            A non-empty tuple always comes with a degraded ``quality`` —
            a partial answer is never presented as exact.
        reply_epochs: the distinct topology epochs of the shard replies
            merged into ``value`` (sharded serving only; empty for
            single-process services, cacheless rungs, and gap-fill-only
            answers).  The router's fencing invariant keeps this at most
            one epoch long — the evidence the chaos EpochOracle audits.
    """

    request: QueryRequest
    value: Any
    quality: QualityLevel
    served_epoch: int
    cached: bool = False
    batched: bool = False
    shed: bool = False
    breaker: bool = False
    latency_ms: float = 0.0
    missing_shards: Tuple[int, ...] = ()
    reply_epochs: Tuple[int, ...] = ()

    @property
    def degraded(self) -> bool:
        """True when the answer came from below the exact indexed rung."""
        return self.quality is not QualityLevel.EXACT_INDEXED

    @property
    def partial(self) -> bool:
        """True when one or more shards failed to contribute exact results
        and their slice of the answer was filled from a degraded rung."""
        return bool(self.missing_shards)
