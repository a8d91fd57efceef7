"""Algorithm 5: the indoor range query Q_r(q, r) (paper §V-A1).

Given a query position ``q`` and a radius ``r``, return every object whose
minimum indoor walking distance from ``q`` is at most ``r``.

The algorithm first searches ``q``'s host partition, then, for each door
``d_i`` through which the host partition can be left, scans all other doors
``d_j`` in non-descending M_d2d[d_i, ·] order (via M_idx), stopping as soon
as a door is out of range.  For each reachable door it consults the DPT: a
partition whose f_dv fits entirely inside the range contributes its whole
bucket without opening it; otherwise a grid-pruned ``rangeSearch`` from the
door runs inside the bucket.

The composite queries of :mod:`repro.queries.advanced` consume the same
door walk.  An object at ``intra`` from ``d_j`` is admitted iff ``reach +
intra <= r`` with ``reach = dist_v(q, d_i) + D(d_i, d_j)``: the float sum
Algorithm 4, kNN and the composites report.  The whole-bucket test is
``reach + f_dv <= r``, exact because float addition is monotone.

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

import math
from typing import TYPE_CHECKING, Iterator, List, Optional, Set, Tuple

from repro.exceptions import QueryError
from repro.geometry import Point
from repro.index.backend import DoorScanSource
from repro.index.framework import IndexFramework
from repro.index.grid import PartitionGrid
from repro.queries.checks import require_finite, require_finite_position

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.deadline import Deadline


def _slack(radius: float) -> float:
    """How far every bound ``radius - partial`` passed down is widened, so
    that it cuts no ``x`` with ``partial + x <= radius`` in floats.  Such an
    ``x`` exceeds the exact ``radius - partial`` by at most ``ulp(radius)/2``;
    the subtraction rounds by at most ``ulp(radius)/2`` and adding the slack
    by at most ``ulp(radius)`` (it may cross a binade).  Callers re-test the
    sum, so the slack admits nothing."""
    return 2 * math.ulp(radius)


def _door_walk(
    framework: IndexFramework,
    position: Point,
    radius: float,
    use_index: bool = True,
    deadline: Optional["Deadline"] = None,
    door_scans: Optional[DoorScanSource] = None,
) -> Iterator[Tuple[PartitionGrid, Point, float, float]]:
    """Yield ``(bucket, anchor, reach, longest_reach)`` per bucket entered.

    First the host bucket, anchored at ``position`` with ``reach = 0.0`` and
    ``longest_reach = inf``; then, per leaveable door ``d_i`` (ascending id)
    and scanned door ``d_j`` with ``reach = dist_v(q, d_i) + D(d_i, d_j) <=
    radius``, each bucket the DPT enters through ``d_j``, anchored at its
    midpoint, with its f_dv.  ``radius`` may be ``inf``.
    """
    require_finite_position(position)
    framework.check_fresh()
    if deadline is not None:
        deadline.check("range query")
    space = framework.space
    host = space.require_host_partition(position)
    store = framework.objects
    if door_scans is None:
        door_scans = framework.distance_index

    slack = _slack(radius)
    bucket = store.bucket(host.partition_id)
    if bucket is not None:
        yield bucket, position, 0.0, math.inf

    for di in sorted(space.topology.leaveable_doors(host.partition_id)):
        if deadline is not None:
            deadline.check("range query")
        to_door = space.dist_v(position, di, host)
        if to_door > radius or to_door == math.inf:
            continue
        scan = (
            door_scans.doors_by_distance(di, max_distance=radius - to_door + slack)
            if use_index
            else framework.distance_index.doors_unsorted(di)
        )
        for dj, door_distance in scan:
            if deadline is not None:
                deadline.check("range query")
            reach = to_door + door_distance
            if reach > radius or reach == math.inf:
                continue  # a widened-bound straggler, or the unsorted scan
            anchor = space.door(dj).midpoint
            for partition_id, longest_reach in framework.dpt.record(dj).enterable():
                target_bucket = store.bucket(partition_id)
                if target_bucket is not None:
                    yield target_bucket, anchor, reach, longest_reach


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
    require_finite(radius, "range radius")
    if radius < 0:
        raise QueryError(f"range radius must be non-negative, got {radius}")
    results: Set[int] = set()
    slack = _slack(radius)
    for bucket, anchor, reach, longest_reach in _door_walk(
        framework, position, radius, use_index, deadline, door_scans
    ):
        if reach + longest_reach <= radius:
            # The whole partition fits inside the range: take the bucket
            # without opening it (Algorithm 5 lines 12-13).
            results.update(bucket.object_ids())
        else:
            found = bucket.range_search(anchor, radius - reach + slack)
            results.update(oid for oid, intra in found if reach + intra <= radius)
    return sorted(results)
