"""Brute-force query oracles.

These evaluate the exact position-to-position distance (Algorithm 3) from
the query position to *every* object — no indexes, no pruning.  They are the
ground truth the engine's results are verified against in tests, the
"how bad would it be with no infrastructure at all" datapoint in examples,
and the ``EXACT_FALLBACK`` rung of the runtime degradation ladder (they
need only the space graph and the object directory, so they keep answering
exactly while M_d2d / DPT are corrupt or mid-rebuild).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.distance.point_to_point import pt2pt_distance_refined
from repro.exceptions import QueryError
from repro.geometry import Point
from repro.index.objects import ObjectStore
from repro.model.builder import IndoorSpace
from repro.queries.checks import require_finite, require_finite_position

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.deadline import Deadline


def brute_force_range(
    space: IndoorSpace,
    store: ObjectStore,
    position: Point,
    radius: float,
    deadline: Optional["Deadline"] = None,
) -> List[int]:
    """Exact range query by evaluating pt2pt distance per object, with
    ``range_query``'s admission rule: an exact ``distance <= radius``."""
    require_finite_position(position)
    require_finite(radius, "range radius")
    if radius < 0:
        raise QueryError(f"range radius must be non-negative, got {radius}")
    results = []
    for obj in store:
        if deadline is not None:
            deadline.check("brute-force range query")
        distance = pt2pt_distance_refined(
            space, position, obj.position, deadline=deadline
        )
        if distance <= radius:
            results.append(obj.object_id)
    return sorted(results)


def brute_force_knn(
    space: IndoorSpace,
    store: ObjectStore,
    position: Point,
    k: int,
    deadline: Optional["Deadline"] = None,
) -> List[Tuple[int, float]]:
    """Exact kNN by evaluating pt2pt distance per object."""
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    require_finite_position(position)
    scored = []
    for obj in store:
        if deadline is not None:
            deadline.check("brute-force kNN query")
        distance = pt2pt_distance_refined(
            space, position, obj.position, deadline=deadline
        )
        if not math.isinf(distance):
            scored.append((distance, obj.object_id))
    scored.sort()
    return [(oid, dist) for dist, oid in scored[:k]]
