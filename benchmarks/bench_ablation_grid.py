"""Ablation: intra-partition grid cell size (§V-B).

The paper states the grid "is able to accelerate the distance comparison
within a partition" but leaves the configuration open ("the grid
configuration is not the focus of this paper").  This ablation sweeps the
cell edge length to expose the trade-off: tiny cells mean many cell visits,
huge cells degenerate to a full bucket scan.

The synthetic building holds only a few objects per cell, so its searches
mostly scan buckets flat.  The dense-hall case puts thousands of objects
in one 60 x 60 m partition, where a 5 m range search looks up only the
cells of its key window and a 10-NN search walks the cell heap: the
searches the grid exists for.
"""

import random

import pytest

from repro.bench.harness import get_building, get_framework
from repro.geometry import Point, Segment, rectangle
from repro.index import IndexFramework, IndoorObject
from repro.model import IndoorSpaceBuilder
from repro.queries import knn_query, range_query
from repro.synthetic import build_object_store, random_positions

OBJECTS = 10_000
FLOORS = 30
QUERIES = 10

HALL_OBJECTS = 3_000
HALL_SIDE_M = 60.0

_stores = {}
_halls = {}


def framework_with_cell_size(cell_size):
    key = cell_size
    if key not in _stores:
        _stores[key] = build_object_store(
            get_building(FLOORS), OBJECTS, seed=7, cell_size=cell_size
        )
    return get_framework(FLOORS).with_objects(_stores[key])


@pytest.mark.parametrize("cell_size", [0.5, 1.0, 2.0, 4.0, 8.0])
def test_ablation_grid_cell_size_knn(benchmark, cell_size):
    framework = framework_with_cell_size(cell_size)
    positions = random_positions(get_building(FLOORS), QUERIES, seed=71)
    benchmark.extra_info.update({"cell_size_m": cell_size, "k": 100})

    def run():
        for q in positions:
            knn_query(framework, q, 100)

    benchmark.pedantic(run, rounds=2, iterations=1)


@pytest.mark.parametrize("cell_size", [0.5, 2.0, 8.0])
def test_ablation_grid_cell_size_range(benchmark, cell_size):
    framework = framework_with_cell_size(cell_size)
    positions = random_positions(get_building(FLOORS), QUERIES, seed=72)
    benchmark.extra_info.update({"cell_size_m": cell_size, "radius_m": 30})

    def run():
        for q in positions:
            range_query(framework, q, 30.0)

    benchmark.pedantic(run, rounds=2, iterations=1)


def test_ablation_grid_results_invariant_to_cell_size(benchmark):
    """The cell size is performance-only: results must not change."""
    coarse = framework_with_cell_size(8.0)
    fine = framework_with_cell_size(8.0 / 16)
    positions = random_positions(get_building(FLOORS), 3, seed=73)
    for q in positions:
        assert range_query(coarse, q, 25.0) == range_query(fine, q, 25.0)

    def run():
        for q in positions:
            range_query(coarse, q, 25.0)

    benchmark.pedantic(run, rounds=1, iterations=1)


def dense_hall(cell_size):
    """A 60 x 60 m hall holding ``HALL_OBJECTS`` uniform objects, with a
    side room behind one door."""
    if cell_size not in _halls:
        builder = IndoorSpaceBuilder()
        builder.add_partition(1, rectangle(0.0, 0.0, HALL_SIDE_M, HALL_SIDE_M))
        builder.add_partition(2, rectangle(HALL_SIDE_M, 0.0, HALL_SIDE_M + 6.0, 6.0))
        builder.add_door(
            1, Segment(Point(HALL_SIDE_M, 2.0), Point(HALL_SIDE_M, 4.0)), connects=(1, 2)
        )
        rng = random.Random(11)
        objects = [
            IndoorObject(
                object_id,
                Point(rng.uniform(0.0, HALL_SIDE_M), rng.uniform(0.0, HALL_SIDE_M)),
            )
            for object_id in range(HALL_OBJECTS)
        ]
        _halls[cell_size] = IndexFramework.build(
            builder.build(), objects, cell_size=cell_size
        )
    return _halls[cell_size]


def hall_positions(count, seed):
    rng = random.Random(seed)
    return [
        Point(rng.uniform(0.0, HALL_SIDE_M), rng.uniform(0.0, HALL_SIDE_M))
        for _ in range(count)
    ]


@pytest.mark.parametrize("cell_size", [0.5, 2.0, 8.0])
def test_ablation_grid_dense_hall_range(benchmark, cell_size):
    framework = dense_hall(cell_size)
    positions = hall_positions(QUERIES * 10, seed=74)
    benchmark.extra_info.update(
        {"cell_size_m": cell_size, "radius_m": 5, "hall_objects": HALL_OBJECTS}
    )

    def run():
        for q in positions:
            range_query(framework, q, 5.0)

    benchmark.pedantic(run, rounds=2, iterations=1)


@pytest.mark.parametrize("cell_size", [0.5, 2.0, 8.0])
def test_ablation_grid_dense_hall_knn(benchmark, cell_size):
    framework = dense_hall(cell_size)
    positions = hall_positions(QUERIES * 10, seed=75)
    benchmark.extra_info.update(
        {"cell_size_m": cell_size, "k": 10, "hall_objects": HALL_OBJECTS}
    )

    def run():
        for q in positions:
            knn_query(framework, q, 10)

    benchmark.pedantic(run, rounds=2, iterations=1)


def test_ablation_grid_dense_hall_results_invariant_to_cell_size(benchmark):
    """Window scan, cell heap and flat scan answer alike at every cell
    size (a 200 m cell puts the whole hall in one cell)."""
    coarse = dense_hall(200.0)
    fine = dense_hall(0.5)
    positions = hall_positions(5, seed=76)
    for q in positions:
        assert range_query(coarse, q, 5.0) == range_query(fine, q, 5.0)
        assert knn_query(coarse, q, 10) == knn_query(fine, q, 10)

    def run():
        for q in positions:
            range_query(fine, q, 5.0)

    benchmark.pedantic(run, rounds=1, iterations=1)
