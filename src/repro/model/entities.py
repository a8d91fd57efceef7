"""Indoor entities: partitions and doors.

A *partition* is the smallest piece of independent indoor space — a room, a
hallway, or a staircase — connected to other partitions by one or more doors
(paper §III, running example).  The exterior of the building is itself a
special partition, so that doors to the outside need no special casing; unlike
the paper's abstract "all of outdoor space" partition, we give the outdoor
partition a finite polygon (an apron strip around the entrance), which lets
every partition carry geometry.

A *door* is a doorway segment in a wall.  All door-related distances use the
door's midpoint (paper footnote 3).  Directionality is a property of the
topology (which D2P pairs exist), not of the door entity itself.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.exceptions import GeometryError, ModelError
from repro.geometry import Point, Polygon, Segment
from repro.geometry.visibility import VisibilityGraph


class PartitionKind(enum.Enum):
    """Semantic role of a partition; affects nothing but presentation,
    except that ``STAIRCASE`` partitions carry a walking-length override used
    when flattening multi-floor buildings (paper §VI-A)."""

    ROOM = "room"
    HALLWAY = "hallway"
    STAIRCASE = "staircase"
    OUTDOOR = "outdoor"


@dataclass(frozen=True)
class Door:
    """A doorway: an identifier plus the wall segment it occupies.

    Attributes:
        door_id: unique non-negative integer; Algorithm 4's optimisations
            compare door identifiers, so ids are totally ordered.
        segment: the doorway segment in the wall.  A zero-length segment
            (``start == end``) models a door known only by a point.
        name: optional human-readable label (``"d15"``).
    """

    door_id: int
    segment: Segment
    name: str = ""

    def __post_init__(self) -> None:
        if self.door_id < 0:
            raise ModelError(f"door id must be non-negative, got {self.door_id}")
        # Computed once: the queries read it for every door they expand.  Not
        # a dataclass field, so eq, hash and repr are unchanged.
        object.__setattr__(self, "_midpoint", self.segment.midpoint)

    @property
    def midpoint(self) -> Point:
        """The point all door-to-door and door-to-position distances use."""
        return self._midpoint

    @property
    def floor(self) -> int:
        """Floor the doorway lies on."""
        return self.segment.floor

    @property
    def width(self) -> float:
        """Doorway width (zero for point doors)."""
        return self.segment.length

    @property
    def label(self) -> str:
        """Display name: the explicit name or ``d<door_id>``."""
        return self.name or f"d{self.door_id}"

    @staticmethod
    def at_point(door_id: int, point: Point, name: str = "") -> "Door":
        """Create a zero-width door located at ``point``."""
        return Door(door_id, Segment(point, point), name)

    def __str__(self) -> str:
        return f"{self.label}@{self.midpoint}"


class Partition:
    """A room, hallway, staircase, or outdoor apron with optional obstacles.

    Intra-partition distances are Euclidean when the partition is convex and
    obstacle-free; otherwise they are measured on a lazily built visibility
    graph (paper §III-C1).

    Args:
        partition_id: unique non-negative integer; id 0 is conventionally the
            outdoor partition.
        polygon: the partition outline.
        kind: semantic role of the partition.
        name: optional human-readable label (``"room 13"``).
        obstacles: polygons inside the outline that block movement.
        stair_length: for ``STAIRCASE`` partitions, the actual walking length
            of the stairs; used as the door-to-door distance when the
            staircase is flattened into a virtual room.  ``None`` means
            "use planar geometry".
    """

    def __init__(
        self,
        partition_id: int,
        polygon: Polygon,
        kind: PartitionKind = PartitionKind.ROOM,
        name: str = "",
        obstacles: Tuple[Polygon, ...] = (),
        stair_length: Optional[float] = None,
    ) -> None:
        if partition_id < 0:
            raise ModelError(f"partition id must be non-negative, got {partition_id}")
        if stair_length is not None:
            if kind is not PartitionKind.STAIRCASE:
                raise ModelError("stair_length is only valid for staircases")
            if stair_length <= 0:
                raise ModelError(f"stair_length must be positive, got {stair_length}")
        for obstacle in obstacles:
            if obstacle.floor != polygon.floor:
                raise GeometryError("obstacle floor differs from partition floor")
        self.partition_id = partition_id
        self.polygon = polygon
        self.kind = kind
        self.name = name
        self.obstacles: Tuple[Polygon, ...] = tuple(obstacles)
        self.stair_length = stair_length
        self._visibility: Optional[VisibilityGraph] = None
        # Convex and obstacle-free: any segment between interior points stays
        # inside, so intra distances are plain Euclidean (fast path).
        self._convex_clear = not obstacles and polygon.is_convex()

    @property
    def floor(self) -> int:
        """Base floor the partition lies on."""
        return self.polygon.floor

    @property
    def floors(self) -> Tuple[int, ...]:
        """Floors the partition spans.

        A staircase with a ``stair_length`` is the paper's "virtual room"
        (§VI-A): it spans its base floor and the floor above, with one door on
        each.  Every other partition spans exactly its polygon's floor.
        """
        if self.kind is PartitionKind.STAIRCASE and self.stair_length is not None:
            return (self.polygon.floor, self.polygon.floor + 1)
        return (self.polygon.floor,)

    def _project(self, point: Point) -> Point:
        """Project a point of an upper landing down to the polygon's floor."""
        return point.on_floor(self.polygon.floor)

    @property
    def label(self) -> str:
        """Display name: the explicit name or ``v<partition_id>``."""
        return self.name or f"v{self.partition_id}"

    @property
    def has_obstacles(self) -> bool:
        """True when the partition declares at least one obstacle."""
        return bool(self.obstacles)

    @property
    def visibility(self) -> VisibilityGraph:
        """The partition's visibility graph (built on first use)."""
        if self._visibility is None:
            self._visibility = VisibilityGraph(self.polygon, self.obstacles)
        return self._visibility

    def contains(self, point: Point) -> bool:
        """True when ``point`` lies inside the partition outline (boundary
        inclusive), on a floor the partition spans, and not strictly inside
        any obstacle."""
        if point.floor not in self.floors:
            return False
        projected = self._project(point)
        if not self.polygon.contains_point(projected):
            return False
        return not any(o.strictly_contains_point(projected) for o in self.obstacles)

    def intra_distance(self, source: Point, target: Point) -> float:
        """Minimum walking distance between two points inside this partition
        without leaving it.

        Straight-line Euclidean when nothing obstructs; a visibility-graph
        shortest path otherwise; ``inf`` when the points are separated by
        obstacles.  Inside a flattened staircase, two points on *different*
        floors are ``stair_length`` apart — the actual stair walking distance
        of the paper's §VI-A transformation.
        """
        if source.floor != target.floor:
            if self.stair_length is not None:
                return self.stair_length
            return float("inf")
        source, target = self._project(source), self._project(target)
        if self._convex_clear:
            return source.distance_to(target)
        # Non-convex but obstacle-free: straight line if it stays inside,
        # otherwise route via the boundary's visibility graph.
        if not self.has_obstacles and self.polygon.contains_segment(
            Segment(source, target)
        ):
            return source.distance_to(target)
        return self.visibility.distance(source, target)

    def intra_path(self, source: Point, target: Point):
        """Like :meth:`intra_distance` but also returns the waypoints.

        Cross-floor staircase paths report the two endpoints as waypoints.
        """
        if source.floor != target.floor:
            if self.stair_length is not None:
                return self.stair_length, [source, target]
            return float("inf"), []
        return self.visibility.shortest_path(
            self._project(source), self._project(target)
        )

    def max_distance_from(self, point: Point) -> float:
        """``max_{p in partition} ‖point, p‖`` — the farthest one can walk
        within the partition starting from ``point`` (used by f_dv, §III-C1).

        Exact for obstacle-free convex partitions (the maximum is attained at
        a vertex); for obstructed or non-convex partitions the maximum over
        outline and obstacle vertices is a tight, conservative-enough
        approximation that we document as such.  For flattened staircases the
        farthest reachable point is the far end of the stairs, so the answer
        is at least ``stair_length``.
        """
        if self.stair_length is not None:
            planar_max = max(
                self._project(point).distance_to(v) for v in self.polygon.vertices
            )
            return max(self.stair_length, planar_max)
        candidates = list(self.polygon.vertices)
        for obstacle in self.obstacles:
            candidates.extend(obstacle.vertices)
        best = 0.0
        for vertex in candidates:
            d = self.intra_distance(point, vertex)
            if d != float("inf") and d > best:
                best = d
        return best

    def __repr__(self) -> str:
        return (
            f"Partition({self.partition_id}, kind={self.kind.value}, "
            f"floor={self.floor}, label={self.label!r})"
        )
