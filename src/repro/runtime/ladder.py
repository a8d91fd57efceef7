"""The graceful-degradation ladder: answer quality as an explicit dimension.

When the exact indexed path is unavailable — M_d2d corrupt, DPT records
missing, indexes stale and rebuild disabled, or the deadline too tight —
the resilient engine does not fail the query; it *descends* a ladder of
evaluation strategies, each cheaper in assumptions than the last:

====================  =====================================================
rung                  what it needs / what it guarantees
====================  =====================================================
``EXACT_INDEXED``     M_d2d + M_idx + DPT + grid buckets; exact answer.
``EXACT_FALLBACK``    only the space graph and the object directory;
                      per-object exact pt2pt evaluation (the paper's
                      index-free baseline).  Still exact, just slower.
``DOOR_COUNT``        the Li & Lee lattice baseline: path quality measured
                      in doors crossed, walking distance of the chosen
                      (fewest-doors) path as the reported value — an upper
                      bound, so a range filter on it never includes a
                      false positive.
``EUCLIDEAN``         straight-line distance, a lower bound on any indoor
                      walk — never misses a true range member, may include
                      extras; kNN order is heuristic.
====================  =====================================================

Every answer is tagged with the :class:`QualityLevel` it was produced at,
so callers can distinguish "exact" from "best effort under failure".

:data:`RUNGS` is the one (query kind × rung) evaluator table: the resilient
engine's ladder, the serving tier's shed / breaker rungs, the shard
workers' exact answers and the benchmarks' sequential reference all look
their evaluator up there.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.distance.door_count import door_count_pt2pt
from repro.distance.point_to_point import pt2pt_distance, pt2pt_distance_refined
from repro.exceptions import ReproError
from repro.geometry import Point
from repro.index.framework import IndexFramework
from repro.queries.baselines import brute_force_knn, brute_force_range
from repro.queries.knn_query import knn_query
from repro.queries.range_query import range_query
from repro.runtime.deadline import Deadline


class QueryKind(enum.Enum):
    """The query types the serving layer accepts (re-exported by
    :mod:`repro.serve.requests`; defined here so :data:`RUNGS` can key on
    it without importing the serving package)."""

    RANGE = "range"
    KNN = "knn"
    PT2PT = "pt2pt"


class QualityLevel(enum.IntEnum):
    """How trustworthy a query answer is; higher is better.

    ``IntEnum`` so callers can write
    ``result.quality >= QualityLevel.EXACT_FALLBACK`` to mean "exact by
    either path".
    """

    EUCLIDEAN = 1
    DOOR_COUNT = 2
    EXACT_FALLBACK = 3
    EXACT_INDEXED = 4

    @property
    def is_exact(self) -> bool:
        """True for the two rungs that return paper-exact answers."""
        return self >= QualityLevel.EXACT_FALLBACK


@dataclass(frozen=True)
class RungFailure:
    """Why one ladder rung could not answer."""

    level: QualityLevel
    error: ReproError

    def __str__(self) -> str:
        return f"{self.level.name}: {type(self.error).__name__}: {self.error}"


@dataclass(frozen=True)
class ResilientResult:
    """A query answer plus the provenance of its quality.

    Attributes:
        value: the rung's answer (result-set / pair list / distance).
        quality: the ladder rung that produced ``value``.
        failures: every higher rung that was tried and failed, in order.
        rebuilt: True when a stale index was rebuilt to serve this query.
    """

    value: Any
    quality: QualityLevel
    failures: Tuple[RungFailure, ...] = ()
    rebuilt: bool = False

    @property
    def degraded(self) -> bool:
        """True when the answer came from below the exact indexed rung."""
        return self.quality is not QualityLevel.EXACT_INDEXED


def euclidean_lower_bound(source: Point, target: Point) -> float:
    """Straight-line planar distance — a lower bound on any indoor walk.

    Sound across floors too: the planar projection of a multi-floor path is
    a curve joining the two planar points, so the walk is at least as long
    as the straight line between them.
    """
    return math.hypot(source.x - target.x, source.y - target.y)


# ----------------------------------------------------------------------
# Lower-rung query evaluators.  The exact rungs live in repro.queries; the
# evaluators below are the DOOR_COUNT and EUCLIDEAN rungs, deadline-aware.
# ----------------------------------------------------------------------
def door_count_range(
    framework: IndexFramework,
    position: Point,
    radius: float,
    deadline: Optional[Deadline] = None,
) -> List[int]:
    """Range filter on the fewest-doors path's walking distance.

    That distance upper-bounds the true minimum walk, so every id reported
    is genuinely within ``radius`` (no false positives); objects whose only
    short route crosses many doors may be missed.
    """
    results: List[int] = []
    space = framework.space
    for obj in framework.objects:
        if deadline is not None:
            deadline.check("door-count range query")
        outcome = door_count_pt2pt(space, position, obj.position)
        if outcome.walking_distance <= radius + 1e-9:
            results.append(obj.object_id)
    return sorted(results)


def door_count_knn(
    framework: IndexFramework,
    position: Point,
    k: int,
    deadline: Optional[Deadline] = None,
) -> List[Tuple[int, float]]:
    """k nearest by the lattice model: fewest doors first, walking distance
    of that path as tie-break and reported distance."""
    scored = []
    space = framework.space
    for obj in framework.objects:
        if deadline is not None:
            deadline.check("door-count kNN query")
        outcome = door_count_pt2pt(space, position, obj.position)
        if outcome.is_reachable:
            scored.append(
                (outcome.doors_crossed, outcome.walking_distance, obj.object_id)
            )
    scored.sort()
    return [(oid, walk) for _, walk, oid in scored[:k]]


def euclidean_range(
    objects: Iterable[Tuple[int, Point]], position: Point, radius: float
) -> List[int]:
    """Range filter on the Euclidean lower bound over ``(id, position)``
    pairs: a superset of the true answer (never misses a member), computed
    without touching the model."""
    return sorted(
        oid
        for oid, at in objects
        if euclidean_lower_bound(position, at) <= radius + 1e-9
    )


def euclidean_knn(
    objects: Iterable[Tuple[int, Point]], position: Point, k: int
) -> List[Tuple[int, float]]:
    """k nearest ``(id, position)`` pairs by straight-line distance — a
    last-resort ordering with the lower-bound distances reported."""
    scored = sorted(
        (euclidean_lower_bound(position, at), oid) for oid, at in objects
    )
    return [(oid, dist) for dist, oid in scored[:k]]


# ----------------------------------------------------------------------
# The (query kind × rung) evaluator table.
# ----------------------------------------------------------------------
#: ``(framework, request, deadline) -> value``; ``request`` is a
#: :class:`repro.serve.requests.QueryRequest` (or anything with its
#: ``position`` / ``radius`` / ``k`` / ``target`` fields).
Rung = Callable[[IndexFramework, Any, Optional[Deadline]], Any]


def located(framework: IndexFramework) -> Iterator[Tuple[int, Point]]:
    """The framework's objects as ``(id, position)`` pairs — what the
    Euclidean evaluators consume."""
    return ((obj.object_id, obj.position) for obj in framework.objects)


def _door_count_distance(
    framework: IndexFramework, request: Any, deadline: Optional[Deadline]
) -> float:
    """The DOOR_COUNT rung of pt2pt distance: the fewest-doors path's
    walking distance (an upper bound on the true minimum walk)."""
    if deadline is not None:
        deadline.check("door-count distance")
    space = framework.space
    return door_count_pt2pt(space, request.position, request.target).walking_distance


RUNGS: Dict[QueryKind, Dict[QualityLevel, Rung]] = {
    QueryKind.RANGE: {
        QualityLevel.EXACT_INDEXED: lambda fw, rq, deadline: range_query(
            fw, rq.position, rq.radius, deadline=deadline
        ),
        QualityLevel.EXACT_FALLBACK: lambda fw, rq, deadline: brute_force_range(
            fw.space, fw.objects, rq.position, rq.radius, deadline=deadline
        ),
        QualityLevel.DOOR_COUNT: lambda fw, rq, deadline: door_count_range(
            fw, rq.position, rq.radius, deadline=deadline
        ),
        QualityLevel.EUCLIDEAN: lambda fw, rq, deadline: euclidean_range(
            located(fw), rq.position, rq.radius
        ),
    },
    QueryKind.KNN: {
        QualityLevel.EXACT_INDEXED: lambda fw, rq, deadline: knn_query(
            fw, rq.position, rq.k, deadline=deadline
        ),
        QualityLevel.EXACT_FALLBACK: lambda fw, rq, deadline: brute_force_knn(
            fw.space, fw.objects, rq.position, rq.k, deadline=deadline
        ),
        QualityLevel.DOOR_COUNT: lambda fw, rq, deadline: door_count_knn(
            fw, rq.position, rq.k, deadline=deadline
        ),
        QualityLevel.EUCLIDEAN: lambda fw, rq, deadline: euclidean_knn(
            located(fw), rq.position, rq.k
        ),
    },
    QueryKind.PT2PT: {
        QualityLevel.EXACT_INDEXED: lambda fw, rq, deadline: pt2pt_distance(
            fw.space, rq.position, rq.target, deadline=deadline
        ),
        # Algorithm 3 without the cross-iteration memo table: fewer shared
        # structures to go wrong.
        QualityLevel.EXACT_FALLBACK: lambda fw, rq, deadline: (
            pt2pt_distance_refined(fw.space, rq.position, rq.target, deadline=deadline)
        ),
        QualityLevel.DOOR_COUNT: _door_count_distance,
        QualityLevel.EUCLIDEAN: lambda fw, rq, deadline: euclidean_lower_bound(
            rq.position, rq.target
        ),
    },
}
