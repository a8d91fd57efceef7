"""Algorithm 1: door-to-door minimum walking distance (paper §III-D1).

The search expands over *doors* (not partitions) in the spirit of Dijkstra's
algorithm, which is the paper's stated distinction from the textbook version:
graph edges (doors) carry no weights of their own; instead each relaxation
step crosses one partition ``v`` from an entering door ``d_i`` to a leaving
door ``d_j`` at cost ``f_d2d(v, d_i, d_j)``.

The implementation uses a lazy-deletion binary heap, which is semantically
identical to the paper's "replace d_j's element in H" decrease-key but does
not require an addressable heap.  Each door is still settled (visited) at
most once, as the paper requires.

:func:`settle_doors` is that expansion on its own.  Algorithm 1 here,
Algorithms 3 and 4 (:mod:`repro.distance.point_to_point`) and the batched
multi-target Algorithm 3 all run it, so Figure 6 compares their stopping
rules and memoisation over one and the same relaxation loop.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, Optional, Set, Tuple

from repro.exceptions import UnknownEntityError
from repro.distance.path import DoorPath
from repro.model.distance_graph import DistanceAwareGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.deadline import Deadline


@dataclass(frozen=True)
class DoorSearchResult:
    """Outcome of a (possibly early-terminated) door-graph search.

    Attributes:
        source: the source door id.
        dist: settled-or-relaxed distances per door id.  Doors never reached
            are absent; treat absence as ``inf``.
        prev: for every reached door, the ``(partition, door)`` pair through
            which the shortest path arrives (``None`` for the source) — the
            paper's ``prev[.]`` array.
        settled: doors whose distance is final (popped from the heap).
    """

    source: int
    dist: Dict[int, float]
    prev: Dict[int, Optional[Tuple[int, int]]]
    settled: Set[int]

    def distance_to(self, door_id: int) -> float:
        """Final distance to ``door_id`` (``inf`` when not settled)."""
        if door_id in self.settled:
            return self.dist[door_id]
        return math.inf


def settle_doors(
    graph: DistanceAwareGraph,
    source_door: int,
    dist: Dict[int, float],
    settled: Set[int],
    prev: Optional[Dict[int, Optional[Tuple[int, int]]]] = None,
    deadline: Optional["Deadline"] = None,
) -> Iterator[Tuple[float, int]]:
    """Algorithm 1's expansion from ``source_door``, one settled door at a
    time.

    Yields ``(distance, door)`` for each door as it is settled, in ascending
    ``(distance, door id)`` order.  The edges out of a yielded door are
    relaxed only when the generator is resumed, so a caller that stops
    early evaluates no further ``f_d2d`` weights.

    ``dist`` and ``settled`` (and ``prev`` when given) start empty and are
    filled in place, so the caller can read them between steps.
    ``deadline`` is checked before every heap pop.
    """
    # Bound once per call: the loop runs once per relaxed edge, and a
    # wrapper installed on ``graph.fd2d`` beforehand still sees every call.
    fd2d = graph.fd2d
    topology = graph.space.topology
    enterable_partitions = topology.enterable_partitions
    leaveable_doors = topology.leaveable_doors
    get_dist = dist.get
    heappop = heapq.heappop
    heappush = heapq.heappush
    inf = math.inf

    dist[source_door] = 0.0
    if prev is not None:
        prev[source_door] = None
    heap: list = [(0.0, source_door)]
    while heap:
        if deadline is not None:
            deadline.check("pt2pt distance")
        d, current = heappop(heap)
        if current in settled:
            continue
        settled.add(current)
        yield d, current
        for partition_id in enterable_partitions(current):
            for next_door in leaveable_doors(partition_id):
                if next_door in settled:
                    continue
                # An infinite weight never beats ``get_dist``'s default.
                candidate = d + fd2d(partition_id, current, next_door)
                if candidate < get_dist(next_door, inf):
                    dist[next_door] = candidate
                    if prev is not None:
                        prev[next_door] = (partition_id, current)
                    heappush(heap, (candidate, next_door))


def door_to_door_search(
    graph: DistanceAwareGraph,
    source_door: int,
    target_door: Optional[int] = None,
    targets: Optional[Iterable[int]] = None,
) -> DoorSearchResult:
    """Run Algorithm 1's expansion from ``source_door``.

    Args:
        graph: the distance-aware graph G_dist.
        source_door: door to start from (distance 0 at its midpoint).
        target_door: stop as soon as this door is settled.
        targets: stop as soon as *all* of these doors are settled (used by
            the refined position-to-position algorithms).  When both stopping
            criteria are ``None`` the search settles every reachable door,
            which is how the all-pairs matrix is built.

    Returns:
        A :class:`DoorSearchResult`; query it with
        :meth:`~DoorSearchResult.distance_to`.
    """
    topology = graph.space.topology
    if not topology.has_door(source_door):
        raise UnknownEntityError("door", source_door)
    if target_door is not None and not topology.has_door(target_door):
        raise UnknownEntityError("door", target_door)

    pending: Optional[Set[int]] = set(targets) if targets is not None else None
    dist: Dict[int, float] = {}
    prev: Dict[int, Optional[Tuple[int, int]]] = {}
    settled: Set[int] = set()
    for _, current in settle_doors(graph, source_door, dist, settled, prev):
        if current == target_door:
            break
        if pending is not None:
            pending.discard(current)
            if not pending:
                break

    return DoorSearchResult(source_door, dist, prev, settled)


def d2d_distance(
    graph: DistanceAwareGraph, source_door: int, target_door: int
) -> float:
    """d2dDistance(d_s, d_t): the minimum walking distance between two door
    midpoints, or ``inf`` when the target cannot be reached."""
    result = door_to_door_search(graph, source_door, target_door=target_door)
    return result.distance_to(target_door)


def d2d_path(
    graph: DistanceAwareGraph, source_door: int, target_door: int
) -> DoorPath:
    """Like :func:`d2d_distance` but also reconstructs the concrete shortest
    path (door and partition sequence) from the ``prev`` array."""
    result = door_to_door_search(graph, source_door, target_door=target_door)
    distance = result.distance_to(target_door)
    if math.isinf(distance):
        return DoorPath(math.inf, (), ())

    doors = [target_door]
    partitions = []
    cursor = target_door
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
    return DoorPath(distance, tuple(doors), tuple(partitions))
