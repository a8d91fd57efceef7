"""Algorithms 2-4: position-to-position minimum walking distance (§III-D2).

All three algorithms compute the same value

    min over (d_s, d_t) of  distV(p_s, d_s) + d2d(d_s, d_t) + distV(p_t, d_t)

where ``d_s`` ranges over the doors through which the source partition can be
left and ``d_t`` over the doors through which the destination partition can be
entered — plus, when source and destination share a host partition, the direct
intra-partition distance (the paper's Figure-5 discussion shows that *both*
candidate sets are needed: an out-and-back door route can beat the intra-
partition path when obstacles are present, and vice versa).

They differ in how much work they share:

* :func:`pt2pt_distance_basic` (Algorithm 2) calls the door-to-door search
  blindly for every (d_s, d_t) pair.
* :func:`pt2pt_distance_refined` (Algorithm 3) prunes dead-end source doors,
  prunes destination doors against the best distance found so far, and runs
  a *single* multi-target expansion per source door with early termination.
* :func:`pt2pt_distance_memoized` (Algorithm 4) additionally memoises
  door-to-door distances across source-door iterations, harvesting them
  backward along shortest-path trees (the ``prev`` walk) and short-circuiting
  a source door whose expansion reaches an already-processed source door.

The paper's Figure 6/7 experiments compare exactly these three functions.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.distance.door_to_door import (
    DoorSearchResult,
    door_to_door_search,
    settle_doors,
)
from repro.distance.path import IndoorPath
from repro.geometry import Point
from repro.model.builder import IndoorSpace
from repro.model.entities import Partition

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.deadline import Deadline


def _hosts(space: IndoorSpace, source: Point, target: Point) -> Tuple[Partition, Partition]:
    return (
        space.require_host_partition(source),
        space.require_host_partition(target),
    )


def _direct_candidate(
    vs: Partition, vt: Partition, source: Point, target: Point
) -> float:
    """The intra-partition candidate when both positions share a partition."""
    if vs.partition_id != vt.partition_id:
        return math.inf
    return vs.intra_distance(source, target)


def _source_doors(
    space: IndoorSpace, vs: Partition, vt: Partition
) -> List[int]:
    """P2D⊢(v_s) with the dead-end pruning of Algorithm 3 (lines 5-8):
    drop a source door whose only enterable partition is a non-destination
    partition that cannot be left except through that same door."""
    topology = space.topology
    doors_s = sorted(topology.leaveable_doors(vs.partition_id))
    pruned: List[int] = []
    for ds in doors_s:
        other = topology.enterable_partitions(ds) - {vs.partition_id}
        if len(other) == 1:
            neighbor = next(iter(other))
            if (
                neighbor != vt.partition_id
                and topology.leaveable_doors(neighbor) == frozenset({ds})
            ):
                continue
        pruned.append(ds)
    return pruned


def pt2pt_distance_basic(
    space: IndoorSpace,
    source: Point,
    target: Point,
    deadline: Optional["Deadline"] = None,
) -> float:
    """Algorithm 2: iterate blindly over all (d_s, d_t) door pairs."""
    vs, vt = _hosts(space, source, target)
    if deadline is not None:
        deadline.check("pt2pt distance")
    graph = space.distance_graph
    topology = space.topology

    best = _direct_candidate(vs, vt, source, target)
    doors_t = sorted(topology.enterable_doors(vt.partition_id))
    for ds in sorted(topology.leaveable_doors(vs.partition_id)):
        dist1 = space.dist_v(source, ds, vs)
        if math.isinf(dist1):
            continue
        for dt in doors_t:
            if deadline is not None:
                deadline.check("pt2pt distance")
            dist2 = space.dist_v(target, dt, vt)
            if math.isinf(dist2):
                continue
            result = door_to_door_search(graph, ds, target_door=dt)
            candidate = dist1 + result.distance_to(dt) + dist2
            if candidate < best:
                best = candidate
    return best


def pt2pt_distance_refined(
    space: IndoorSpace,
    source: Point,
    target: Point,
    deadline: Optional["Deadline"] = None,
) -> float:
    """Algorithm 3: one pruned multi-target expansion per source door."""
    vs, vt = _hosts(space, source, target)
    if deadline is not None:
        deadline.check("pt2pt distance")
    graph = space.distance_graph
    topology = space.topology

    doors_s = _source_doors(space, vs, vt)
    doors_t = sorted(topology.enterable_doors(vt.partition_id))
    dist_to_source_door = {
        ds: space.dist_v(source, ds, vs) for ds in doors_s
    }
    dist_from_target_door = {
        dt: space.dist_v(target, dt, vt) for dt in doors_t
    }

    best = _direct_candidate(vs, vt, source, target)
    for ds in doors_s:
        dist1 = dist_to_source_door[ds]
        if math.isinf(dist1):
            continue
        pending: Set[int] = {
            dt
            for dt in doors_t
            if dist1 + dist_from_target_door[dt] < best
        }
        if not pending:
            continue

        # Algorithm 3's inner expansion (lines 15-36): Dijkstra over doors
        # from ds, harvesting destination doors as they settle.
        for d, current in settle_doors(graph, ds, {}, set(), deadline=deadline):
            if current in pending:
                pending.discard(current)
                candidate = dist1 + d + dist_from_target_door[current]
                if candidate < best:
                    best = candidate
                if not pending:
                    break
            if d + dist1 >= best:
                # Everything still on the heap is at least this far: no
                # remaining destination can improve on the best.
                break
    return best


def pt2pt_distance_memoized(
    space: IndoorSpace,
    source: Point,
    target: Point,
    deadline: Optional["Deadline"] = None,
) -> float:
    """Algorithm 4: Algorithm 3 plus cross-iteration reuse of door-to-door
    distances via the ``dists[.][.]`` table and the ``prev`` walk."""
    vs, vt = _hosts(space, source, target)
    if deadline is not None:
        deadline.check("pt2pt distance")
    graph = space.distance_graph
    topology = space.topology

    doors_s = _source_doors(space, vs, vt)
    doors_t = sorted(topology.enterable_doors(vt.partition_id))
    dist_to_source_door = {ds: space.dist_v(source, ds, vs) for ds in doors_s}
    dist_from_target_door = {dt: space.dist_v(target, dt, vt) for dt in doors_t}
    source_door_set = set(doors_s)

    # dists[(d_i, d_j)]: known shortest door-to-door distance from source
    # door d_i to destination door d_j (the paper's 2-D array, lines 9-10).
    dists: Dict[Tuple[int, int], float] = {}

    best = _direct_candidate(vs, vt, source, target)
    for ds in doors_s:  # ascending door ids (paper footnote 4)
        dist1 = dist_to_source_door[ds]
        if math.isinf(dist1):
            continue
        pending: Set[int] = {
            dt
            for dt in doors_t
            if (ds, dt) not in dists
            and dist1 + dist_from_target_door[dt] < best
        }
        if not pending:
            continue

        dist: Dict[int, float] = {}
        prev: Dict[int, Optional[Tuple[int, int]]] = {}
        for d, current in settle_doors(
            graph, ds, dist, set(), prev, deadline=deadline
        ):
            if current in pending:
                pending.discard(current)
                # The paper's pseudocode omits this write, but its forward
                # optimisation (line 42) reads dists[d_i][d_j] for doors that
                # were processed as source doors — which is only populated if
                # settling a destination records the exact distance here.
                dists[(ds, current)] = d
                candidate = dist1 + d + dist_from_target_door[current]
                if candidate < best:
                    best = candidate
                # Backward optimisation (lines 31-37): walk the shortest-path
                # tree back towards ds; every not-yet-processed source door on
                # the way knows its distance to `current` as a difference of
                # labels (subpaths of shortest paths are shortest paths).
                step = prev[current]
                while step is not None:
                    _, previous_door = step
                    if previous_door == ds:
                        break
                    if previous_door in source_door_set and previous_door > ds:
                        via = dist[current] - dist[previous_door]
                        dists[(previous_door, current)] = via
                        candidate = (
                            dist_to_source_door[previous_door]
                            + via
                            + dist_from_target_door[current]
                        )
                        if candidate < best:
                            best = candidate
                    step = prev[previous_door]
                if not pending:
                    break

            elif current in source_door_set and current < ds:
                # Forward optimisation (paper lines 40-45): `current` was
                # already processed as a source door, so chain its memoised
                # distances through to the pending destinations.  The paper
                # then `break`s unconditionally, assuming every remaining
                # shortest path from ds runs through `current`; that
                # assumption fails on general topologies (a destination door
                # can be reachable more cheaply around `current`), so we keep
                # the chaining but rely on the provably safe bound below to
                # stop the expansion.  See DESIGN.md, "Algorithm 4 fix".
                for dt in pending:
                    via = dists.get((current, dt), math.inf)
                    if math.isinf(via):
                        continue
                    candidate = dist1 + d + via + dist_from_target_door[dt]
                    if candidate < best:
                        best = candidate

            if d + dist1 >= best:
                break
    return best


def pt2pt_distance(
    space: IndoorSpace,
    source: Point,
    target: Point,
    deadline: Optional["Deadline"] = None,
) -> float:
    """The library default position-to-position distance: Algorithm 4.

    All three algorithms are exact in this implementation (Algorithm 4's
    forward short-circuit is replaced by a provably safe stopping bound —
    see DESIGN.md, "Algorithm 4 fix"); Algorithm 4 reuses the most work and
    is the fastest on multi-door source partitions, so it is the default.

    ``deadline`` is an optional cooperative time budget checked in the
    expansion loops; see :mod:`repro.runtime.deadline`.
    """
    return pt2pt_distance_memoized(space, source, target, deadline=deadline)


def pt2pt_path(space: IndoorSpace, source: Point, target: Point) -> IndoorPath:
    """Position-to-position shortest path with its door/partition sequence.

    One multi-target door search per source door (Algorithm 3's sharing),
    keeping the ``prev`` arrays so the winning pair's concrete path can be
    reconstructed afterwards.
    """
    vs, vt = _hosts(space, source, target)
    graph = space.distance_graph
    topology = space.topology

    best = _direct_candidate(vs, vt, source, target)
    best_path: Optional[IndoorPath] = None
    if not math.isinf(best):
        best_path = IndoorPath(best, source, target, (), (vs.partition_id,))

    doors_t = sorted(topology.enterable_doors(vt.partition_id))
    dist_from_target_door = {dt: space.dist_v(target, dt, vt) for dt in doors_t}
    winner: Optional[Tuple[int, int, DoorSearchResult]] = None
    for ds in sorted(topology.leaveable_doors(vs.partition_id)):
        dist1 = space.dist_v(source, ds, vs)
        if math.isinf(dist1):
            continue
        result = door_to_door_search(graph, ds, targets=set(doors_t))
        for dt in doors_t:
            dist2 = dist_from_target_door[dt]
            if math.isinf(dist2):
                continue
            candidate = dist1 + result.distance_to(dt) + dist2
            if candidate < best:
                best = candidate
                winner = (ds, dt, result)

    if winner is not None:
        ds, dt, result = winner
        doors = [dt]
        partitions: List[int] = []
        cursor = dt
        while True:
            step = result.prev[cursor]
            if step is None:
                break
            partition_id, previous_door = step
            partitions.append(partition_id)
            doors.append(previous_door)
            cursor = previous_door
        doors.reverse()
        partitions.reverse()
        best_path = IndoorPath(
            best,
            source,
            target,
            tuple(doors),
            (vs.partition_id, *partitions, vt.partition_id),
        )
    if best_path is None:
        return IndoorPath(math.inf, source, target, (), ())
    return best_path
