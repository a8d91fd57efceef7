"""Composite distance-aware queries (paper §VII: "it is also relevant to
consider other types of distance-aware indoor queries ... by using the
query types in this paper as building blocks").

All of these compose the §V machinery.  The range-style ones consume
Algorithm 5's door walk in :mod:`repro.queries.range_query` and admit an
object by its rule, ``reach + intra <= r``; they skip the whole-bucket
shortcut, because they need every object's distance:

* :func:`range_query_with_distances` — Algorithm 5 returning exact
  distances per object, min-merged across routes;
* :func:`distances_to_all_objects` — one-to-all object distances, the
  workhorse behind the aggregate queries (and services like the boarding
  reminder, which needs every passenger's distance);
* :func:`distance_join` — all object pairs within a walking distance;
* :func:`aggregate_nn` — group nearest neighbour: the object minimising
  the sum (or maximum) of walking distances from a set of positions
  (meeting-point finding);
* :func:`closest_pair` — the two objects nearest each other, from one
  2-NN query (Algorithm 6) per object.
"""

from __future__ import annotations

import math
from typing import Dict, List, Literal, Optional, Sequence, Tuple

from repro.exceptions import QueryError
from repro.geometry import Point
from repro.index.framework import IndexFramework
from repro.queries.checks import require_finite
from repro.queries.knn_query import knn_query
from repro.queries.range_query import _door_walk, _slack


def _object_distances(
    framework: IndexFramework,
    position: Point,
    radius: float,
    use_index: bool = True,
) -> Dict[int, float]:
    """Exact walking distance to every object within ``radius`` of
    ``position`` (``inf``: every reachable object), min-merged over the
    door walk's routes."""
    best: Dict[int, float] = {}
    slack = _slack(radius)
    for bucket, anchor, reach, _ in _door_walk(framework, position, radius, use_index):
        for object_id, intra in bucket.range_search(anchor, radius - reach + slack):
            distance = reach + intra
            if distance <= radius and distance < best.get(object_id, math.inf):
                best[object_id] = distance
    return best


def range_query_with_distances(
    framework: IndexFramework,
    position: Point,
    radius: float,
    use_index: bool = True,
) -> List[Tuple[int, float]]:
    """Algorithm 5 with exact distances: ``(object_id, distance)`` for every
    object within ``radius``, sorted by ascending distance.

    Raises:
        QueryError: for a negative / NaN / infinite radius or a non-finite
            query position.
        StaleIndexError: when the space topology mutated after the
            framework was built (as for every composite query here).
    """
    require_finite(radius, "range radius")
    if radius < 0:
        raise QueryError(f"range radius must be non-negative, got {radius}")
    distances = _object_distances(framework, position, radius, use_index)
    return sorted(distances.items(), key=lambda item: (item[1], item[0]))


def distances_to_all_objects(
    framework: IndexFramework, position: Point
) -> Dict[int, float]:
    """Walking distance from ``position`` to every reachable object."""
    return _object_distances(framework, position, math.inf)


def distance_join(
    framework: IndexFramework, radius: float
) -> List[Tuple[int, int, float]]:
    """All object pairs within walking distance ``radius`` of each other.

    Returns ``(id_low, id_high, distance)`` triples, each pair once, sorted
    by distance.  One range expansion per object; pairs are deduplicated by
    reporting only partners with a larger id.
    """
    require_finite(radius, "join radius")
    if radius < 0:
        raise QueryError(f"join radius must be non-negative, got {radius}")
    pairs: List[Tuple[int, int, float]] = []
    for obj in sorted(framework.objects, key=lambda o: o.object_id):
        for other_id, distance in _object_distances(
            framework, obj.position, radius
        ).items():
            if other_id > obj.object_id:
                pairs.append((obj.object_id, other_id, distance))
    pairs.sort(key=lambda triple: (triple[2], triple[0], triple[1]))
    return pairs


def aggregate_nn(
    framework: IndexFramework,
    positions: Sequence[Point],
    k: int = 1,
    agg: Literal["sum", "max"] = "sum",
) -> List[Tuple[int, float]]:
    """Group nearest neighbour: the ``k`` objects minimising the aggregate
    walking distance from all of ``positions``.

    ``agg='sum'`` finds the best meeting point for total walking;
    ``agg='max'`` minimises the farthest member's walk.  Objects unreachable
    from any member are excluded.
    """
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    if not positions:
        raise QueryError("aggregate_nn needs at least one position")
    if agg not in ("sum", "max"):
        raise QueryError(f"unsupported aggregate: {agg!r}")

    per_member = [
        distances_to_all_objects(framework, position) for position in positions
    ]
    common = set(per_member[0])
    for distances in per_member[1:]:
        common &= set(distances)
    scored: List[Tuple[float, int]] = []
    for object_id in common:
        values = [distances[object_id] for distances in per_member]
        score = sum(values) if agg == "sum" else max(values)
        scored.append((score, object_id))
    scored.sort()
    return [(object_id, score) for score, object_id in scored[:k]]


def closest_pair(
    framework: IndexFramework,
) -> Optional[Tuple[int, int, float]]:
    """The two distinct objects with the smallest walking distance between
    them, as ``(id_low, id_high, distance)``; ``None`` with fewer than two
    objects or when no pair is mutually reachable.

    Runs a 2-NN query anchored at every object (the nearest neighbour of
    some object realises the closest pair).
    """
    framework.check_fresh()
    best: Optional[Tuple[int, int, float]] = None
    for obj in framework.objects:
        for other_id, distance in knn_query(framework, obj.position, k=2):
            if other_id == obj.object_id:
                continue
            low, high = sorted((obj.object_id, other_id))
            if best is None or distance < best[2]:
                best = (low, high, distance)
    return best
