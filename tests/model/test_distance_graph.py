"""Tests for the distance-aware graph G_dist (§III-C): f_dv and f_d2d."""

import math

import pytest

from repro.exceptions import UnknownEntityError
from repro.geometry import Point
from repro.model.figure1 import (
    D12,
    D13,
    D15,
    D21,
    D22,
    D24,
    HALLWAY,
    ROOM_12,
    ROOM_13,
    ROOM_20,
    ROOM_22,
    build_figure1,
)


@pytest.fixture(scope="module")
def space():
    return build_figure1()


@pytest.fixture(scope="module")
def gdist(space):
    return space.distance_graph


class TestFdv:
    def test_fdv_finite_for_enterable_partition(self, space, gdist):
        # d13 enters room 13; the farthest point of room 13 from d13 is a
        # far corner of the room.
        midpoint = space.door(D13).midpoint
        expected = max(
            midpoint.distance_to(v)
            for v in space.partition(ROOM_13).polygon.vertices
        )
        assert gdist.fdv(D13, ROOM_13) == pytest.approx(expected)

    def test_fdv_infinite_for_non_enterable_partition(self, gdist):
        # d12 is one-way out of room 12, so room 12 is not enterable via d12.
        assert math.isinf(gdist.fdv(D12, ROOM_12))

    def test_fdv_infinite_for_untouched_partition(self, gdist):
        assert math.isinf(gdist.fdv(D13, ROOM_20))

    def test_fdv_unknown_partition_raises(self, gdist):
        with pytest.raises(UnknownEntityError):
            gdist.fdv(D13, 999)

    def test_fdv_is_cached(self, space):
        graph = space.distance_graph
        graph.fdv(D13, ROOM_13)
        stats = graph.cache_stats()
        graph.fdv(D13, ROOM_13)
        assert graph.cache_stats() == stats


class TestFd2d:
    def test_paper_one_way_asymmetry(self, gdist):
        # §III-C1: f_d2d(v12, d12, d15) = ∞ because one cannot go from d12 to
        # d15 within room 12 (d12 does not *enter* room 12); the reverse
        # direction d15 -> d12 is the finite intra-room distance.
        assert math.isinf(gdist.fd2d(ROOM_12, D12, D15))
        expected = Point(6, 8).distance_to(Point(5, 6))
        assert gdist.fd2d(ROOM_12, D15, D12) == pytest.approx(expected)

    def test_same_door_is_zero(self, gdist):
        assert gdist.fd2d(ROOM_12, D12, D12) == 0.0
        assert gdist.fd2d(HALLWAY, D12, D12) == 0.0

    def test_same_door_not_touching_partition_is_inf(self, gdist):
        assert math.isinf(gdist.fd2d(ROOM_20, D12, D12))

    def test_bidirectional_door_pair_is_symmetric(self, gdist):
        forward = gdist.fd2d(ROOM_20, D21, D22)
        backward = gdist.fd2d(ROOM_20, D22, D21)
        assert forward == pytest.approx(backward)
        assert forward > 0

    def test_obstructed_d22_d24_distance(self, space, gdist):
        # The paper's §III-C1 note: the d22-d24 distance within room 22 is
        # *not* Euclidean because an obstacle blocks the line of sight.
        euclidean = space.door(D22).midpoint.distance_to(space.door(D24).midpoint)
        obstructed = gdist.fd2d(ROOM_22, D22, D24)
        assert obstructed > euclidean + 0.1

    def test_doors_not_sharing_partition_are_inf(self, gdist):
        assert math.isinf(gdist.fd2d(HALLWAY, D21, D13))

    def test_unknown_partition_raises(self, gdist):
        with pytest.raises(UnknownEntityError):
            gdist.fd2d(999, D12, D13)

    @pytest.mark.parametrize(
        "key",
        [
            (ROOM_12, D15, D12),  # finite
            (ROOM_12, D12, D15),  # one-way: infinite
            (HALLWAY, D12, D12),  # same door: zero
            (ROOM_20, D12, D12),  # same door, not touching: infinite
            (HALLWAY, D21, D13),  # no shared partition: infinite
        ],
    )
    def test_cache_hit_returns_the_miss_value(self, key):
        graph = build_figure1().distance_graph
        missed = graph.fd2d(*key)
        stats = graph.cache_stats()
        assert stats["fd2d_entries"] == 1
        hit = graph.fd2d(*key)
        assert graph.cache_stats() == stats
        assert hit == missed

    def test_unknown_partition_raises_on_a_warm_cache(self):
        graph = build_figure1().distance_graph
        graph.precompute()
        stats = graph.cache_stats()
        for _ in range(2):
            with pytest.raises(UnknownEntityError):
                graph.fd2d(999, D12, D13)
        assert graph.cache_stats() == stats


class TestPrecompute:
    def test_precompute_fills_caches(self):
        space = build_figure1()
        graph = space.distance_graph
        assert graph.cache_stats()["fd2d_entries"] == 0
        graph.precompute()
        stats = graph.cache_stats()
        assert stats["fd2d_entries"] > 0
        assert stats["fdv_entries"] > 0
        # Precomputing again adds nothing.
        graph.precompute()
        assert graph.cache_stats() == stats

    def test_precomputed_values_match_lazy_values(self):
        lazy = build_figure1().distance_graph
        eager = build_figure1().distance_graph
        eager.precompute()
        for partition_id in (HALLWAY, ROOM_12, ROOM_13, ROOM_20, ROOM_22):
            topo = lazy.space.topology
            for di in topo.enterable_doors(partition_id):
                for dj in topo.leaveable_doors(partition_id):
                    assert eager.fd2d(partition_id, di, dj) == pytest.approx(
                        lazy.fd2d(partition_id, di, dj)
                    )
