"""Differential property test of the §V-B object grid.

``PartitionGrid.range_search`` and ``nn_search`` prune cells with planar
lower bounds and take a Euclidean fast path in convex, obstacle-free
partitions; each picks per call between a cell scan (the key window of
the circle, or the nearest-first cell heap) and a flat scan of the bucket.
Every path must agree exactly (``==`` on the distance floats) with a
brute-force scan over every object of the bucket that measures each
object with ``Partition.intra_distance``.  The partitions are random convex
rooms, non-convex rooms, rooms with an obstacle, and staircases whose
anchors may sit on the floor above; the buckets are sparse or dense, may
hold objects on and just outside the bounding box, and go through random
inserts, moves and removes before each search.  Anchors lie inside, on a
wall (where doors are) or far outside the partition.
"""

import math
import random
from collections import Counter

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Polygon, rectangle
from repro.index import PartitionGrid
from repro.model import Partition, PartitionKind

SHAPES = ("convex", "triangle", "l_shape", "obstacle", "staircase")
#: Shapes whose walking distances are straight lines.  Visibility-graph
#: distances are slow to brute-force, so the other shapes get smaller
#: buckets and no far-away anchors.
STRAIGHT = ("convex", "triangle", "staircase")


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


def edge_point(partition, rng):
    """A point on an edge of the partition's bounding box, or 1e-10 m
    outside it (``PartitionGrid.insert`` takes any position)."""
    box = partition.polygon.bounding_box
    x = rng.uniform(box.min_x, box.max_x)
    y = rng.uniform(box.min_y, box.max_y)
    out = rng.choice([0.0, 1e-10])
    x, y = rng.choice(
        [
            (box.min_x - out, y),
            (box.max_x + out, y),
            (x, box.min_y - out),
            (x, box.max_y + out),
        ]
    )
    return Point(x, y, rng.choice(partition.floors))


def wall_point(partition, rng):
    """The midpoint of a random wall, where doors put their anchors."""
    return rng.choice(partition.polygon.edges()).midpoint


def far_point(partition, rng):
    """A point 10-200 m outside the partition's bounding box."""
    box = partition.polygon.bounding_box
    return Point(
        rng.choice([box.min_x - rng.uniform(10, 200), box.max_x + rng.uniform(10, 200)]),
        rng.uniform(box.min_y - 200, box.max_y + 200),
        partition.floor,
    )


class _CellSpy(dict):
    """A grid's cell map that counts how a search reads it."""

    def __init__(self, cells):
        super().__init__(cells)
        self.reads = Counter()

    def get(self, key, default=None):
        self.reads["lookup"] += 1
        return super().get(key, default)

    def __iter__(self):
        self.reads["iterate"] += 1
        return super().__iter__()

    def keys(self):
        self.reads["iterate"] += 1
        return super().keys()

    def values(self):
        self.reads["iterate"] += 1
        return super().values()

    def items(self):
        self.reads["iterate"] += 1
        return super().items()


def spied(grid, search, *args):
    """Run ``search(*args)`` on ``grid``; return its answer and the scan it
    took: ``"window"`` (looked cells up by key), ``"heap"`` (iterated the
    occupied cells) or ``"flat"`` (read no cell)."""
    cells = grid._cells
    spy = grid._cells = _CellSpy(cells)
    try:
        answer = search(*args)
    finally:
        grid._cells = cells
    if spy.reads["iterate"]:
        path = "heap"
    elif spy.reads["lookup"]:
        path = "window"
    else:
        path = "flat"
    return answer, path


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
    # Sparse buckets scan flat; dense ones (many objects per cell) take the
    # key window and the cell heap.
    count = draw(st.integers(0, 30) | st.integers(40, 200 if shape in STRAIGHT else 60))
    on_edge = draw(st.integers(0, 5))
    for object_id in range(count + on_edge):
        position = (
            edge_point(partition, rng) if object_id >= count else random_point(partition, rng)
        )
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
    anchors = [
        random_point(partition, rng),
        random_point(partition, rng),
        wall_point(partition, rng),
    ]
    if shape in STRAIGHT:
        anchors.append(far_point(partition, rng))
    if partition.kind is PartitionKind.STAIRCASE:
        anchors.append(random_point(partition, rng, floor=partition.floor + 1))
    radius = draw(st.floats(0.0, 60.0) | st.just(math.inf))
    k = draw(st.integers(1, 8) | st.integers(200, 300))
    return grid, anchors, radius, k


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_range_search_equals_brute_force(scenario):
    grid, anchors, radius, _ = scenario
    for anchor in anchors:
        expected = sorted((oid, d) for oid, d in brute_force(grid, anchor) if d <= radius)
        found, path = spied(grid, grid.range_search, anchor, radius)
        assert sorted(found) == expected
        # No range search iterates every occupied cell.
        assert path in ("window", "flat")


@settings(max_examples=300, deadline=None)
@given(scenarios(), st.sampled_from([math.inf, 5.0, 20.0]))
def test_nn_search_equals_brute_force(scenario, bound):
    grid, anchors, _, k = scenario
    for anchor in anchors:
        assert_nn_matches(grid, anchor, bound, k, grid.nn_search(anchor, bound, k))


def assert_nn_matches(grid, anchor, bound, k, found):
    """``found`` is ``nn_search(anchor, bound, k)`` up to ties."""
    everything = brute_force(grid, anchor)
    expected = [(oid, d) for oid, d in everything if d < bound][:k]
    # Objects tied at the k-th distance may be cut at any of them (a
    # cross-floor staircase anchor ties every object at stair_length);
    # everything strictly nearer must be the brute force's, in order.
    assert [d for _, d in found] == [d for _, d in expected]
    if expected:
        kth = expected[-1][1]
        assert [item for item in found if item[1] < kth] == [
            item for item in expected if item[1] < kth
        ]
        tied = {oid for oid, d in everything if d == kth}
        assert {oid for oid, d in found if d == kth} <= tied


# ----------------------------------------------------------------------
# Each scan, reached on purpose
# ----------------------------------------------------------------------
def filled_grid(width, height, count, cell_size=2.0, seed=0, edge=0):
    """A convex ``width`` x ``height`` m room holding ``count`` uniform
    objects plus ``edge`` objects on or 1e-10 m outside its bounding box."""
    rng = random.Random(seed)
    partition = Partition(1, rectangle(0.0, 0.0, width, height))
    grid = PartitionGrid(partition, cell_size)
    for object_id in range(count):
        grid.insert(object_id, random_point(partition, rng))
    for object_id in range(count, count + edge):
        grid.insert(object_id, edge_point(partition, rng))
    return grid


def range_path(grid, anchor, radius):
    found, path = spied(grid, grid.range_search, anchor, radius)
    expected = sorted((oid, d) for oid, d in brute_force(grid, anchor) if d <= radius)
    assert sorted(found) == expected
    return path


def nn_path(grid, anchor, bound, k):
    found, path = spied(grid, grid.nn_search, anchor, bound, k)
    assert_nn_matches(grid, anchor, bound, k, found)
    return path


@pytest.mark.parametrize("seed", range(5))
def test_dense_bucket_takes_window_scan_and_cell_heap(seed):
    grid = filled_grid(20.0, 20.0, 1500, seed=seed)  # ~15 objects per cell
    rng = random.Random(seed)
    for _ in range(10):
        anchor = random_point(grid.partition, rng)
        assert range_path(grid, anchor, rng.uniform(0.0, 8.0)) == "window"
        assert nn_path(grid, anchor, rng.choice([math.inf, 3.0]), 10) == "heap"


@pytest.mark.parametrize("seed", range(5))
def test_sparse_bucket_scans_flat(seed):
    grid = filled_grid(75.0, 4.0, 25, seed=seed)  # a hallway: ~1 per cell
    rng = random.Random(seed)
    for _ in range(10):
        anchor = random_point(grid.partition, rng)
        assert range_path(grid, anchor, rng.uniform(5.0, 30.0)) == "flat"
        assert nn_path(grid, anchor, rng.choice([math.inf, 5.0]), 3) == "flat"


def test_infinite_radius_scans_flat():
    grid = filled_grid(20.0, 20.0, 1500)
    rng = random.Random(1)
    for _ in range(5):
        assert range_path(grid, random_point(grid.partition, rng), math.inf) == "flat"


def test_k_at_least_the_bucket_scans_flat():
    grid = filled_grid(20.0, 20.0, 1500)
    rng = random.Random(2)
    for k in (1500, 1501, 5000):
        anchor = random_point(grid.partition, rng)
        assert nn_path(grid, anchor, math.inf, k) == "flat"
        assert nn_path(grid, anchor, 4.0, k) == "flat"


@pytest.mark.parametrize("seed", range(3))
def test_wall_and_far_anchors(seed):
    """Door midpoints sit on the walls; a window reaching past the walls is
    looked up unclipped, and a far anchor's window is large enough to scan
    the bucket flat."""
    grid = filled_grid(20.0, 20.0, 1500, seed=seed)
    rng = random.Random(seed)
    paths = set()
    for edge in grid.partition.polygon.edges():
        for radius in (0.0, 1.0, 3.5, 25.0):
            paths.add(range_path(grid, edge.midpoint, radius))
        for bound in (math.inf, 2.0):
            paths.add(nn_path(grid, edge.midpoint, bound, 7))
    # Two cells past a wall: the window's near keys lie outside the box.
    assert range_path(grid, Point(-4.0, 10.0), 5.0) == "window"
    for _ in range(5):
        anchor = far_point(grid.partition, rng)
        near = grid.partition.polygon.bounding_box.min_distance_to_point(anchor)
        for radius in (near - 1.0, near + 2.0, near + 40.0):
            paths.add(range_path(grid, anchor, radius))
        paths.add(nn_path(grid, anchor, math.inf, 5))
    assert paths == {"window", "flat", "heap"}


@pytest.mark.parametrize("seed", range(3))
def test_objects_on_and_just_outside_the_bounding_box(seed):
    """Positions are not validated on insert: an object 1e-10 m outside the
    box lives in a cell key below 0 or past the last column, and every scan
    must still find it."""
    grid = filled_grid(20.0, 20.0, 400, seed=seed, edge=40)
    rng = random.Random(seed)
    box = grid.partition.polygon.bounding_box
    paths = set()
    for object_id in range(400, 440):
        position = grid.position_of(object_id)
        near = Point(
            min(max(position.x, box.min_x + 0.3), box.max_x - 0.3),
            min(max(position.y, box.min_y + 0.3), box.max_y - 0.3),
        )
        for radius in (0.0, 0.3, 1.0, rng.uniform(0.0, 5.0)):
            paths.add(range_path(grid, near, radius))
            paths.add(range_path(grid, position, radius))
        paths.add(nn_path(grid, position, math.inf, 1))
        paths.add(nn_path(grid, near, 0.5, 3))
    assert paths == {"window", "heap"}


def test_window_keeps_a_cell_its_rounded_edge_would_drop():
    """The object sits exactly on a cell edge at distance <= radius, but
    ``(anchor.x + radius - origin_x) // cell_size`` rounds to the key
    before that cell; the window must still reach it."""
    origin_x = -1.523970137521104
    anchor = Point(-1.8933423304469064, 1.5)
    radius = 1.2693721929258022
    edge = Point(-0.6239701375211041, 1.5)
    partition = Partition(1, rectangle(origin_x, 0.0, origin_x + 3.0, 3.0))
    grid = PartitionGrid(partition, cell_size=0.3)
    rng = random.Random(0)
    for object_id in range(400):
        grid.insert(object_id, random_point(partition, rng))
    grid.insert(400, edge)
    assert (edge.x - origin_x) // 0.3 > (anchor.x + radius - origin_x) // 0.3
    assert range_path(grid, anchor, radius) == "window"
    assert 400 in dict(grid.range_search(anchor, radius))
