"""Per-partition uniform grid object index (paper §V-B).

Each partition's object bucket consists of sub-buckets, one per grid cell,
plus a flat map of every object's position.  Both searches run once per
bucket on every range and kNN query, so each picks, per call, the scan
that costs least:

* ``range_search`` takes the key window of the query circle's bounding
  square.  When the bucket holds more than ``_FLAT_RANGE_OBJECTS_PER_KEY``
  objects per window key it looks up each key of the window, prunes the
  occupied cells whose minimum Euclidean distance to the anchor exceeds the
  radius, and scans the rest (the *window scan*).  Otherwise, and whenever
  planar pruning does not apply (see below) or the radius is infinite, it
  measures every object of the bucket (the *flat scan*).  No path visits
  every occupied cell.
* ``nn_search`` visits cells nearest-first from a heap of cell bounds and
  stops when the next cell cannot beat the running k-th best (the *cell
  heap*).  A sparse bucket (at most ``_FLAT_NN_OBJECTS_PER_CELL`` objects
  per occupied cell), a bucket of at most ``k`` objects and an anchor off
  the partition's floor take the flat scan instead: every distance, those
  below the bound, the first ``k`` by ``(distance, id)``.

Euclidean distance lower-bounds the walking distance, so cell pruning is
safe even with obstacles.  Distances returned are exact *intra-partition
walking distances* from the anchor (a query position inside the partition,
or a door of the partition): straight-line Euclidean in convex
obstacle-free partitions (the overwhelming common case, taken as a fast
path) and visibility-graph distances otherwise.

A cell stores only its objects; its planar lower bound is computed from its
``(ix, iy)`` key on each visit: the cell spans ``[origin_x + ix *
cell_size, origin_x + (ix + 1) * cell_size]`` (likewise in y), and the
bound is ``hypot`` of the per-axis gaps between that span and the anchor (0
when the anchor lies within it).  The fast-path distance is
``hypot(anchor.x - x, anchor.y - y)``, exactly what
:meth:`Point.distance_to` computes.  Planar bounds hold only for an anchor
on the partition's own floor and, in a flattened staircase, only up to
``stair_length`` (objects on the upper landing are that far from any
base-floor anchor).
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterator, List, Tuple

from repro.exceptions import ModelError
from repro.geometry import Point
from repro.model.entities import Partition

#: ``range_search`` scans the bucket flat unless it holds more than this
#: many objects per key of the search window.  A flat scan pays one
#: distance per object; the window scan pays one dict lookup per key, one
#: bound per occupied key and one distance per object of the cells kept.
#: In a 60 x 60 m hall with 2 m cells the two break even between 2 and 3
#: objects per key: with a 5 m radius (36 keys) 72 objects take 0.012 ms
#: either way and 108 take 0.013 ms by window, 0.017 ms flat; with a 20 m
#: radius (441 keys) 882 objects take 0.17 ms by window, 0.14 ms flat, and
#: 1 323 take 0.20 ms by window, 0.22 ms flat.
_FLAT_RANGE_OBJECTS_PER_KEY = 3

#: ``nn_search`` scans the bucket flat when it holds at most this many
#: objects per occupied cell: the cell heap pays one bound per occupied
#: cell before it measures any object.  In a 60 x 60 m hall with 2 m cells
#: and k = 10 the two break even at ~2 objects per cell: 800 objects in 538
#: cells take 0.33 ms flat, 0.58 ms by heap; 1 600 in 745 cells 0.73 ms
#: flat, 0.75 ms by heap; 3 000 in 872 cells 1.68 ms flat, 1.03 ms by heap.
#: A bucket of at most k objects is always scanned flat (the heap cannot
#: stop early): 33 objects in a 10 x 10 m room with k = 100 take 0.016 ms
#: flat, 0.066 ms by heap.
_FLAT_NN_OBJECTS_PER_CELL = 2

#: Widens the range-search key window by this fraction of a cell.  Its
#: edges are rounded: an object exactly on a cell edge, within the radius,
#: can lie one key past ``(anchor.x + radius - origin_x) // cell_size``.
_WINDOW_SLACK = 1e-9


class PartitionGrid:
    """Uniform-grid bucket of object positions inside one partition.

    Args:
        partition: the partition this bucket belongs to.
        cell_size: grid cell edge length (metres).
    """

    def __init__(self, partition: Partition, cell_size: float) -> None:
        if cell_size <= 0:
            raise ModelError(f"cell size must be positive, got {cell_size}")
        self.partition = partition
        self.cell_size = cell_size
        box = partition.polygon.bounding_box
        self._origin_x = box.min_x
        self._origin_y = box.min_y
        self._cells: Dict[Tuple[int, int], Dict[int, Point]] = {}
        self._locations: Dict[int, Point] = {}
        # Straight lines are exact in convex, obstacle-free partitions.
        self._euclidean_ok = (
            not partition.has_obstacles and partition.polygon.is_convex()
        )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _cell_of(self, point: Point) -> Tuple[int, int]:
        return (
            int((point.x - self._origin_x) // self.cell_size),
            int((point.y - self._origin_y) // self.cell_size),
        )

    def insert(self, object_id: int, position: Point) -> None:
        """Place an object in its grid cell."""
        if object_id in self._locations:
            raise ModelError(f"object {object_id} already in this bucket")
        cell = self._cell_of(position)
        self._cells.setdefault(cell, {})[object_id] = position
        self._locations[object_id] = position

    def remove(self, object_id: int) -> Point:
        """Remove an object; returns its last position."""
        try:
            position = self._locations.pop(object_id)
        except KeyError:
            raise ModelError(f"object {object_id} not in this bucket") from None
        cell = self._cell_of(position)
        bucket = self._cells[cell]
        del bucket[object_id]
        if not bucket:
            del self._cells[cell]
        return position

    def __len__(self) -> int:
        return len(self._locations)

    def object_ids(self) -> Tuple[int, ...]:
        """All object ids in this bucket (unordered but deterministic)."""
        return tuple(self._locations)

    def position_of(self, object_id: int) -> Point:
        """Current position of an object in this bucket."""
        return self._locations[object_id]

    @property
    def occupied_cells(self) -> int:
        """Number of non-empty grid cells."""
        return len(self._cells)

    # ------------------------------------------------------------------
    # Searches (the rangeSearch / nnSearch procedures of §V)
    # ------------------------------------------------------------------
    def range_search(
        self, anchor: Point, radius: float
    ) -> List[Tuple[int, float]]:
        """All objects within walking distance ``radius`` of ``anchor``.

        Returns ``(object_id, distance)`` pairs, unsorted.  A bucket that is
        dense relative to the circle's key window has only the occupied
        cells of that window visited, each pruned by its Euclidean lower
        bound (safe with obstacles); any other bucket is scanned flat.
        """
        if radius < 0:
            return []
        hypot = math.hypot
        intra = self.partition.intra_distance
        euclidean_ok = self._euclidean_ok
        floor = anchor.floor
        ax = anchor.x
        ay = anchor.y
        locations = self._locations
        scan: List[Dict[int, Point]] = [locations]
        # Planar cell pruning lower-bounds the walking distance only on the
        # partition's own floor; a cross-floor staircase anchor walks the
        # stairs (a constant), so pruning is skipped there.  For the same
        # reason objects on a staircase's upper landing are ``stair_length``
        # from a base-floor anchor whatever the planar gap: pruning holds
        # only while the stairs are longer than the radius.  A window has
        # at least one key, so small buckets skip it outright.
        stairs = self.partition.stair_length
        if (
            len(locations) > _FLAT_RANGE_OBJECTS_PER_KEY
            and floor == self.partition.floor
            and (stairs is None or stairs > radius)
            and radius < math.inf
        ):
            ox = self._origin_x
            oy = self._origin_y
            size = self.cell_size
            reach = radius + size * _WINDOW_SLACK
            x_lo = (ax - reach - ox) // size
            x_hi = (ax + reach - ox) // size
            y_lo = (ay - reach - oy) // size
            y_hi = (ay + reach - oy) // size
            keys = (x_hi - x_lo + 1.0) * (y_hi - y_lo + 1.0)
            if keys * _FLAT_RANGE_OBJECTS_PER_KEY < len(locations):
                cells = self._cells
                scan = []
                rows = [
                    (iy, max(oy + iy * size - ay, 0.0, ay - (oy + (iy + 1) * size)))
                    for iy in range(int(y_lo), int(y_hi) + 1)
                ]
                for ix in range(int(x_lo), int(x_hi) + 1):
                    gap_x = max(ox + ix * size - ax, 0.0, ax - (ox + (ix + 1) * size))
                    for iy, gap_y in rows:
                        objects = cells.get((ix, iy))
                        if objects is not None and hypot(gap_x, gap_y) <= radius:
                            scan.append(objects)
        results: List[Tuple[int, float]] = []
        append = results.append
        for objects in scan:
            for object_id, position in objects.items():
                if euclidean_ok and position.floor == floor:
                    distance = hypot(ax - position.x, ay - position.y)
                else:
                    distance = intra(anchor, position)
                if distance <= radius:
                    append((object_id, distance))
        return results

    def nn_search(
        self, anchor: Point, bound: float = math.inf, k: int = 1
    ) -> List[Tuple[int, float]]:
        """Up to ``k`` nearest objects with walking distance < ``bound``.

        A dense bucket has its cells visited nearest-first; the scan stops
        when the next cell's minimum possible distance cannot beat the
        running k-th best (or the caller's ``bound``).  A sparse bucket, one
        of at most ``k`` objects, or an anchor on another floor is scanned
        flat.  Returns ``(object_id, distance)`` sorted by ascending
        distance.
        """
        locations = self._locations
        if k < 1 or not locations:
            return []
        hypot = math.hypot
        intra = self.partition.intra_distance
        euclidean_ok = self._euclidean_ok
        floor = anchor.floor
        ax = anchor.x
        ay = anchor.y
        cells = self._cells
        # Planar lower bounds are only valid on the partition's own floor;
        # a cross-floor anchor would give every cell the bound 0.
        if (
            k >= len(locations)
            or len(locations) <= _FLAT_NN_OBJECTS_PER_CELL * len(cells)
            or floor != self.partition.floor
        ):
            found: List[Tuple[float, int]] = []
            for object_id, position in locations.items():
                if euclidean_ok and position.floor == floor:
                    distance = hypot(ax - position.x, ay - position.y)
                else:
                    distance = intra(anchor, position)
                if distance < bound:
                    found.append((distance, object_id))
            found.sort()
            return [(object_id, distance) for distance, object_id in found[:k]]

        ox = self._origin_x
        oy = self._origin_y
        size = self.cell_size
        cell_heap: List[Tuple[float, Tuple[int, int]]] = [
            (
                hypot(
                    max(ox + ix * size - ax, 0.0, ax - (ox + (ix + 1) * size)),
                    max(oy + iy * size - ay, 0.0, ay - (oy + (iy + 1) * size)),
                ),
                (ix, iy),
            )
            for ix, iy in cells
        ]
        # Objects on a staircase's upper landing are ``stair_length`` away
        # from a base-floor anchor whatever the planar gap.
        stairs = self.partition.stair_length
        if stairs is not None:
            cell_heap = [(min(low, stairs), cell) for low, cell in cell_heap]
        heapq.heapify(cell_heap)

        # Max-heap (negated) of the best k candidates found so far; the
        # cutoff is ``bound`` until it holds k, then min(bound, k-th best).
        best: List[Tuple[float, int]] = []
        cutoff = bound
        while cell_heap:
            lower_bound, cell = heapq.heappop(cell_heap)
            if lower_bound >= cutoff:
                break
            for object_id, position in cells[cell].items():
                if euclidean_ok and position.floor == floor:
                    distance = hypot(ax - position.x, ay - position.y)
                else:
                    distance = intra(anchor, position)
                if distance >= cutoff:
                    continue
                if len(best) == k:
                    heapq.heapreplace(best, (-distance, object_id))
                else:
                    heapq.heappush(best, (-distance, object_id))
                if len(best) == k:
                    cutoff = min(bound, -best[0][0])
        return [
            (object_id, distance)
            for distance, object_id in sorted(
                (-neg, object_id) for neg, object_id in best
            )
        ]

    def all_within(self) -> Iterator[Tuple[int, Point]]:
        """Iterate over every (object_id, position) in the bucket."""
        return iter(self._locations.items())
