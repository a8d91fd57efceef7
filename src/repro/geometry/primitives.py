"""Planar geometric primitives: points and segments.

Indoor positions live on a floor of a building, so :class:`Point` carries an
integer ``floor`` in addition to planar coordinates.  All distance-bearing
geometry in the library is per-floor; vertical movement is modelled by the
staircase "virtual rooms" of the indoor-space model (paper §VI-A), never by
three-dimensional Euclidean distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import GeometryError

#: Tolerance used by all approximate geometric comparisons (metres).
EPSILON = 1e-9


@dataclass(frozen=True, order=True, slots=True)
class Point:
    """An indoor position: planar coordinates on a given floor.

    Points are immutable and hashable so they can be dictionary keys, set
    members, and graph nodes.
    """

    x: float
    y: float
    floor: int = 0

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``, which must be on the same floor.

        Raises:
            GeometryError: if the points are on different floors. Cross-floor
                distances are only meaningful through the indoor model.
        """
        if self.floor != other.floor:
            raise GeometryError(
                f"Euclidean distance undefined across floors "
                f"({self.floor} vs {other.floor}); use the indoor model"
            )
        return math.hypot(self.x - other.x, self.y - other.y)

    def translated(self, dx: float, dy: float) -> "Point":
        """Return a copy of this point shifted by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy, self.floor)

    def on_floor(self, floor: int) -> "Point":
        """Return a copy of this point placed on ``floor``."""
        return Point(self.x, self.y, floor)

    def approx_equals(self, other: "Point", tol: float = EPSILON) -> bool:
        """True when both points share a floor and lie within ``tol``."""
        return (
            self.floor == other.floor
            and abs(self.x - other.x) <= tol
            and abs(self.y - other.y) <= tol
        )

    def __str__(self) -> str:
        return f"({self.x:g}, {self.y:g})@F{self.floor}"


def orientation(a: Point, b: Point, c: Point) -> int:
    """Orientation of the ordered triple ``(a, b, c)``.

    Returns:
        ``+1`` for counter-clockwise, ``-1`` for clockwise, ``0`` for
        (approximately) collinear.
    """
    cross = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    if cross > EPSILON:
        return 1
    if cross < -EPSILON:
        return -1
    return 0


@dataclass(frozen=True)
class Segment:
    """A closed straight-line segment between two points on one floor."""

    start: Point
    end: Point

    def __post_init__(self) -> None:
        if self.start.floor != self.end.floor:
            raise GeometryError("segment endpoints must share a floor")

    @property
    def floor(self) -> int:
        """The floor both endpoints lie on."""
        return self.start.floor

    @property
    def length(self) -> float:
        """Euclidean length of the segment."""
        return self.start.distance_to(self.end)

    @property
    def midpoint(self) -> Point:
        """The point halfway between the endpoints."""
        return Point(
            (self.start.x + self.end.x) / 2.0,
            (self.start.y + self.end.y) / 2.0,
            self.start.floor,
        )

    def contains_point(self, p: Point, tol: float = EPSILON) -> bool:
        """True when ``p`` lies on the segment (within ``tol``)."""
        if p.floor != self.floor:
            return False
        if orientation(self.start, self.end, p) != 0:
            return False
        return (
            min(self.start.x, self.end.x) - tol <= p.x <= max(self.start.x, self.end.x) + tol
            and min(self.start.y, self.end.y) - tol <= p.y <= max(self.start.y, self.end.y) + tol
        )

    def intersects(self, other: "Segment") -> bool:
        """True when the two closed segments share at least one point."""
        if self.floor != other.floor:
            return False
        o1 = orientation(self.start, self.end, other.start)
        o2 = orientation(self.start, self.end, other.end)
        o3 = orientation(other.start, other.end, self.start)
        o4 = orientation(other.start, other.end, self.end)
        if o1 != o2 and o3 != o4:
            return True
        # Collinear overlap / endpoint-touching cases.
        return (
            (o1 == 0 and self.contains_point(other.start))
            or (o2 == 0 and self.contains_point(other.end))
            or (o3 == 0 and other.contains_point(self.start))
            or (o4 == 0 and other.contains_point(self.end))
        )

    def properly_intersects(self, other: "Segment") -> bool:
        """True when the segments cross at a single interior point.

        Shared endpoints and collinear overlaps do *not* count.  This is the
        predicate visibility graphs need: two sight lines that merely touch at
        an obstacle corner do not block each other.
        """
        if self.floor != other.floor:
            return False
        o1 = orientation(self.start, self.end, other.start)
        o2 = orientation(self.start, self.end, other.end)
        o3 = orientation(other.start, other.end, self.start)
        o4 = orientation(other.start, other.end, self.end)
        return o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4)

    def __str__(self) -> str:
        return f"[{self.start} -> {self.end}]"
