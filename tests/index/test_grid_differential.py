"""Differential property test of the §V-B object grid.

``PartitionGrid.range_search`` and ``nn_search`` prune cells with planar
lower bounds and take a Euclidean fast path in convex, obstacle-free
partitions.  Both must agree exactly (``==`` on the distance floats) with
a brute-force scan over every object of the bucket that measures each
object with ``Partition.intra_distance``.  The partitions are random convex
rooms, non-convex rooms, rooms with an obstacle, and staircases whose
anchors may sit on the floor above; the buckets go through random inserts,
moves and removes before each search.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Polygon, rectangle
from repro.index import PartitionGrid
from repro.model import Partition, PartitionKind

SHAPES = ("convex", "triangle", "l_shape", "obstacle", "staircase")


def make_partition(shape, rng):
    x0, y0 = rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)
    w, h = rng.uniform(4.0, 30.0), rng.uniform(4.0, 30.0)
    if shape == "convex":
        return Partition(1, rectangle(x0, y0, x0 + w, y0 + h))
    if shape == "triangle":
        return Partition(
            1, Polygon([Point(x0, y0), Point(x0 + w, y0), Point(x0, y0 + h)])
        )
    if shape == "l_shape":
        return Partition(
            1,
            Polygon(
                [
                    Point(x0, y0),
                    Point(x0 + w, y0),
                    Point(x0 + w, y0 + h / 2),
                    Point(x0 + w / 2, y0 + h / 2),
                    Point(x0 + w / 2, y0 + h),
                    Point(x0, y0 + h),
                ]
            ),
        )
    if shape == "obstacle":
        obstacle = rectangle(
            x0 + w * 0.3, y0 + h * 0.3, x0 + w * rng.uniform(0.4, 0.7),
            y0 + h * rng.uniform(0.4, 0.7),
        )
        return Partition(
            1, rectangle(x0, y0, x0 + w, y0 + h), obstacles=(obstacle,)
        )
    return Partition(
        1,
        rectangle(x0, y0, x0 + w, y0 + h),
        PartitionKind.STAIRCASE,
        stair_length=rng.uniform(1.0, 40.0),
    )


def random_point(partition, rng, floor=None):
    """A uniform point of the partition on ``floor`` (default: a random
    floor the partition spans), outside every obstacle."""
    box = partition.polygon.bounding_box
    while True:
        point = Point(
            rng.uniform(box.min_x, box.max_x),
            rng.uniform(box.min_y, box.max_y),
            rng.choice(partition.floors) if floor is None else floor,
        )
        if partition.contains(point):
            return point


def brute_force(grid, anchor):
    """Every object of the bucket with its exact intra-partition distance,
    ordered by ``(distance, id)``."""
    return sorted(
        (
            (object_id, grid.partition.intra_distance(anchor, position))
            for object_id, position in grid.all_within()
        ),
        key=lambda item: (item[1], item[0]),
    )


@st.composite
def scenarios(draw):
    shape = draw(st.sampled_from(SHAPES))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    partition = make_partition(shape, rng)
    grid = PartitionGrid(partition, cell_size=draw(st.sampled_from([0.7, 2.0, 5.0, 50.0])))
    live = {}
    for object_id in range(draw(st.integers(0, 30))):
        position = random_point(partition, rng)
        grid.insert(object_id, position)
        live[object_id] = position
    for _ in range(draw(st.integers(0, 15))):
        if not live:
            break
        object_id = rng.choice(sorted(live))
        grid.remove(object_id)
        if rng.random() < 0.6:  # a move; otherwise the object leaves
            live[object_id] = random_point(partition, rng)
            grid.insert(object_id, live[object_id])
        else:
            del live[object_id]
    anchors = [random_point(partition, rng) for _ in range(3)]
    if partition.kind is PartitionKind.STAIRCASE:
        anchors.append(random_point(partition, rng, floor=partition.floor + 1))
    return grid, anchors, draw(st.floats(0.0, 60.0)), draw(st.integers(1, 8))


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_range_search_equals_brute_force(scenario):
    grid, anchors, radius, _ = scenario
    for anchor in anchors:
        expected = sorted((oid, d) for oid, d in brute_force(grid, anchor) if d <= radius)
        assert sorted(grid.range_search(anchor, radius)) == expected


@settings(max_examples=300, deadline=None)
@given(scenarios(), st.sampled_from([math.inf, 5.0, 20.0]))
def test_nn_search_equals_brute_force(scenario, bound):
    grid, anchors, _, k = scenario
    for anchor in anchors:
        expected = [(oid, d) for oid, d in brute_force(grid, anchor) if d < bound][:k]
        found = grid.nn_search(anchor, bound, k)
        # Objects tied at the k-th distance may be cut at any of them (a
        # cross-floor staircase anchor ties every object at stair_length);
        # everything strictly nearer must be the brute force's, in order.
        assert [d for _, d in found] == [d for _, d in expected]
        if expected:
            kth = expected[-1][1]
            assert [item for item in found if item[1] < kth] == [
                item for item in expected if item[1] < kth
            ]
            tied = {oid for oid, d in brute_force(grid, anchor) if d == kth}
            assert {oid for oid, d in found if d == kth} <= tied
