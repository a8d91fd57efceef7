"""Per-partition uniform grid object index (paper §V-B).

Each partition's object bucket consists of sub-buckets, one per grid cell.
``rangeSearch`` visits only cells whose minimum Euclidean distance to the
anchor is within the radius (Euclidean distance lower-bounds the walking
distance, so the pruning is safe even with obstacles); ``nnSearch`` visits
cells nearest-first and stops when the next cell cannot beat the current
bound.

Distances returned are exact *intra-partition walking distances* from the
anchor (a query position inside the partition, or a door of the partition):
straight-line Euclidean in convex obstacle-free partitions (the overwhelming
common case, taken as a fast path) and visibility-graph distances otherwise.

Both searches run once per bucket on every range and kNN query, so they
allocate nothing per cell or per object.  A cell stores only its objects;
its planar lower bound is computed from its ``(ix, iy)`` key on each visit:
the cell spans ``[origin_x + ix * cell_size, origin_x + (ix + 1) * cell_size]``
(likewise in y), and the bound is ``hypot`` of the per-axis gaps between
that span and the anchor (0 when the anchor lies within it).  The fast-path
distance is ``hypot(anchor.x - x, anchor.y - y)``, exactly what
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

        Returns ``(object_id, distance)`` pairs, unsorted.  Only grid cells
        overlapping the circle are visited (Euclidean lower bound, safe with
        obstacles).
        """
        if radius < 0:
            return []
        hypot = math.hypot
        intra = self.partition.intra_distance
        euclidean_ok = self._euclidean_ok
        floor = anchor.floor
        ax = anchor.x
        ay = anchor.y
        # Planar cell pruning lower-bounds the walking distance only on the
        # partition's own floor; a cross-floor staircase anchor walks the
        # stairs (a constant), so pruning is skipped there.  For the same
        # reason objects on a staircase's upper landing are ``stair_length``
        # from a base-floor anchor whatever the planar gap: pruning holds
        # only while the stairs are longer than the radius.
        stairs = self.partition.stair_length
        prune = floor == self.partition.floor and (stairs is None or stairs > radius)
        ox = self._origin_x
        oy = self._origin_y
        size = self.cell_size
        results: List[Tuple[int, float]] = []
        append = results.append
        for (ix, iy), objects in self._cells.items():
            if prune and hypot(
                max(ox + ix * size - ax, 0.0, ax - (ox + (ix + 1) * size)),
                max(oy + iy * size - ay, 0.0, ay - (oy + (iy + 1) * size)),
            ) > radius:
                continue
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

        Cells are visited nearest-first; the scan stops when the next cell's
        minimum possible distance cannot beat the running k-th best (or the
        caller's ``bound``).  Returns ``(object_id, distance)`` sorted by
        ascending distance.
        """
        if k < 1 or not self._cells:
            return []
        hypot = math.hypot
        intra = self.partition.intra_distance
        euclidean_ok = self._euclidean_ok
        floor = anchor.floor
        ax = anchor.x
        ay = anchor.y
        # Same cross-floor caveats as range_search: planar lower bounds are
        # only valid on the partition's own floor, and objects on a
        # staircase's upper landing are ``stair_length`` away from there.
        if floor == self.partition.floor:
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
                for ix, iy in self._cells
            ]
            stairs = self.partition.stair_length
            if stairs is not None:
                cell_heap = [(min(low, stairs), cell) for low, cell in cell_heap]
        else:
            cell_heap = [(0.0, cell) for cell in self._cells]
        heapq.heapify(cell_heap)

        # Max-heap (negated) of the best k candidates found so far; the
        # cutoff is ``bound`` until it holds k, then min(bound, k-th best).
        best: List[Tuple[float, int]] = []
        cutoff = bound
        while cell_heap:
            lower_bound, cell = heapq.heappop(cell_heap)
            if lower_bound >= cutoff:
                break
            for object_id, position in self._cells[cell].items():
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
