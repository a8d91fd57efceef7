"""Algorithm 5: the indoor range query Q_r(q, r) (paper §V-A1).

Given a query position ``q`` and a radius ``r``, return every object whose
minimum indoor walking distance from ``q`` is at most ``r``.

The algorithm first searches ``q``'s host partition, then, for each door
``d_i`` through which the host partition can be left, scans all other doors
``d_j`` in non-descending M_d2d[d_i, ·] order (via M_idx), stopping as soon
as a door exceeds the remaining budget.  For each reachable door it consults
the DPT: a partition whose f_dv fits entirely inside the remaining budget
contributes its whole bucket without opening it; otherwise a grid-pruned
``rangeSearch`` from the door runs inside the bucket.

``door_scans`` swaps the source of the sorted scan: a serving batch passes
its :class:`~repro.serve.batch.SharedDoorScans` so co-batched queries from
one host partition walk each M_idx row once.

``use_index=False`` reproduces the paper's §VI-B baseline: the same
algorithm forced to scan the entire M_d2d row (no sorted order, no cutoff).

Note the paper's §V-A1 remark: the host partition may be *re-entered*
through a door (the Figure-5 out-and-back phenomenon), so its bucket can be
searched more than once — the union semantics below handles that naturally.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Set

from repro.exceptions import QueryError
from repro.geometry import Point
from repro.index.backend import DoorScanSource
from repro.index.framework import IndexFramework
from repro.queries.checks import require_finite, require_finite_position

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.deadline import Deadline


def range_query(
    framework: IndexFramework,
    position: Point,
    radius: float,
    use_index: bool = True,
    deadline: Optional["Deadline"] = None,
    door_scans: Optional[DoorScanSource] = None,
) -> List[int]:
    """All object ids within walking distance ``radius`` of ``position``.

    Args:
        framework: the §IV index structures.
        position: the query position ``q`` (must lie in some partition).
        radius: the range ``r`` in metres; must be finite and non-negative.
        use_index: scan doors through M_idx (sorted, early-terminating) or
            through the raw M_d2d row (the paper's no-index baseline).
        deadline: optional cooperative time budget, checked once per door
            scanned; raises
            :class:`~repro.exceptions.DeadlineExceededError` on expiry.
        door_scans: where the sorted scan comes from (default: the
            framework's distance backend); ignored when ``use_index`` is
            False.

    Returns:
        Sorted object ids (each object reported once).

    Raises:
        QueryError: for a negative / NaN / infinite radius or a non-finite
            query position.
        StaleIndexError: when the space topology mutated after the
            framework was built.
    """
    require_finite_position(position)
    require_finite(radius, "range radius")
    if radius < 0:
        raise QueryError(f"range radius must be non-negative, got {radius}")
    framework.check_fresh()
    if deadline is not None:
        deadline.check("range query")
    space = framework.space
    host = space.require_host_partition(position)
    store = framework.objects
    if door_scans is None:
        door_scans = framework.distance_index

    results: Set[int] = set()
    bucket = store.bucket(host.partition_id)
    if bucket is not None:
        results.update(oid for oid, _ in bucket.range_search(position, radius))

    for di in sorted(space.topology.leaveable_doors(host.partition_id)):
        if deadline is not None:
            deadline.check("range query")
        budget = radius - space.dist_v(position, di, host)
        if budget < 0:
            continue
        scan = (
            door_scans.doors_by_distance(di, max_distance=budget)
            if use_index
            else framework.distance_index.doors_unsorted(di)
        )
        for dj, door_distance in scan:
            if deadline is not None:
                deadline.check("range query")
            if door_distance > budget:
                continue  # only reachable on the unsorted scan
            remaining = budget - door_distance
            door_point = space.door(dj).midpoint
            for partition_id, longest_reach in framework.dpt.record(dj).enterable():
                target_bucket = store.bucket(partition_id)
                if target_bucket is None:
                    continue
                if longest_reach <= remaining:
                    # The whole partition fits inside the range: take the
                    # bucket without opening it (Algorithm 5 lines 12-13).
                    results.update(target_bucket.object_ids())
                else:
                    results.update(
                        oid
                        for oid, _ in target_bucket.range_search(
                            door_point, remaining
                        )
                    )
    return sorted(results)
