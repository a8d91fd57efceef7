"""Algorithm 6: indoor nearest-neighbour queries, and the k > 1 extension.

Given a query position ``q``, return the object(s) with the smallest minimum
indoor walking distance from ``q``.  The search mirrors the range query's
door expansion, but the budget is the *current k-th best distance*, which
shrinks as candidates arrive: the sorted M_idx scan then prunes entire
partitions the moment a door's distance exceeds the bound — the effect the
paper measures in Figure 9.

An object can be reached through several doors at different costs, so the
result keeps the *minimum* distance per object id; the k-th best bound is
always computed over distinct objects (a subtlety the paper's pseudocode
glosses over — a bound over duplicated candidates would over-prune).
"""

from __future__ import annotations

import bisect
import math
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.exceptions import QueryError
from repro.geometry import Point
from repro.index.backend import DoorScanSource
from repro.index.framework import IndexFramework
from repro.queries.checks import require_finite_position

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.deadline import Deadline


class _TopK:
    """Running k-best distinct objects: dict for dedup, sorted mirror for
    the k-th-best bound."""

    def __init__(self, k: int) -> None:
        self._k = k
        self._best: Dict[int, float] = {}
        self._order: List[Tuple[float, int]] = []

    @property
    def bound(self) -> float:
        """Current k-th best distance (``inf`` while fewer than k found)."""
        if len(self._order) < self._k:
            return math.inf
        return self._order[self._k - 1][0]

    def offer(self, object_id: int, distance: float) -> None:
        """Consider a candidate; keeps the minimum distance per object."""
        old = self._best.get(object_id)
        if old is not None:
            if old <= distance:
                return
            index = bisect.bisect_left(self._order, (old, object_id))
            del self._order[index]
        self._best[object_id] = distance
        bisect.insort(self._order, (distance, object_id))

    def results(self) -> List[Tuple[int, float]]:
        """The up-to-k nearest ``(object_id, distance)``, nearest first."""
        return [(oid, dist) for dist, oid in self._order[: self._k]]


def knn_query(
    framework: IndexFramework,
    position: Point,
    k: int,
    use_index: bool = True,
    deadline: Optional["Deadline"] = None,
    door_scans: Optional[DoorScanSource] = None,
) -> List[Tuple[int, float]]:
    """The k objects nearest to ``position`` by indoor walking distance.

    Args:
        framework: the §IV index structures.
        position: the query position ``q`` (must lie in some partition).
        k: how many neighbours; must be >= 1.
        use_index: scan doors through M_idx (sorted, early-terminating) or
            through the raw M_d2d row (the paper's no-index baseline).
        deadline: optional cooperative time budget, checked once per door
            scanned; raises
            :class:`~repro.exceptions.DeadlineExceededError` on expiry.
        door_scans: where the sorted scan comes from (default: the
            framework's distance backend); ignored when ``use_index`` is
            False.

    Returns:
        Up to ``k`` pairs ``(object_id, distance)``, nearest first (fewer
        when the building holds fewer reachable objects).

    Raises:
        QueryError: for k < 1 or a non-finite query position.
        StaleIndexError: when the space topology mutated after the
            framework was built.
    """
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    require_finite_position(position)
    framework.check_fresh()
    if deadline is not None:
        deadline.check("kNN query")
    space = framework.space
    host = space.require_host_partition(position)
    store = framework.objects
    if door_scans is None:
        door_scans = framework.distance_index

    top = _TopK(k)
    bucket = store.bucket(host.partition_id)
    if bucket is not None:
        for object_id, distance in bucket.nn_search(position, bound=math.inf, k=k):
            top.offer(object_id, distance)

    for di in sorted(space.topology.leaveable_doors(host.partition_id)):
        if deadline is not None:
            deadline.check("kNN query")
        to_door = space.dist_v(position, di, host)
        if math.isinf(to_door):
            continue
        scan = (
            door_scans.doors_by_distance(di)
            if use_index
            else framework.distance_index.doors_unsorted(di)
        )
        for dj, door_distance in scan:
            if deadline is not None:
                deadline.check("kNN query")
            reach = to_door + door_distance
            if reach > top.bound:
                if use_index:
                    break  # sorted scan: everything farther only grows
                continue
            door_point = space.door(dj).midpoint
            for partition_id, _ in framework.dpt.record(dj).enterable():
                target_bucket = store.bucket(partition_id)
                if target_bucket is None:
                    continue
                local_bound = top.bound - reach
                if local_bound <= 0 and not math.isinf(top.bound):
                    # Only exact ties could live here; they cannot improve.
                    continue
                for object_id, distance in target_bucket.nn_search(
                    door_point, bound=local_bound, k=k
                ):
                    top.offer(object_id, reach + distance)
    return top.results()


def nn_query(
    framework: IndexFramework,
    position: Point,
    use_index: bool = True,
    deadline: Optional["Deadline"] = None,
) -> Optional[Tuple[int, float]]:
    """The single nearest neighbour (Algorithm 6 with k = 1), or ``None``
    when no object is reachable."""
    result = knn_query(
        framework, position, k=1, use_index=use_index, deadline=deadline
    )
    return result[0] if result else None
