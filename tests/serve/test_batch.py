"""Shared-work batching: planning, exactness, and row sharing."""

import math

import pytest

from repro.distance import pt2pt_distance
from repro.exceptions import CorruptIndexError
from repro.geometry import Point
from repro.queries import knn_query, range_query
from repro.serve import (
    QueryRequest,
    SharedDoorScans,
    batched_pt2pt_distances,
    execute_group,
    plan_batches,
)


class TestPlanning:
    def test_same_partition_requests_group(self, serve_framework, query_positions):
        space = serve_framework.space
        position = query_positions[0]
        requests = [
            QueryRequest.range_query(position, 5.0),
            QueryRequest.range_query(position, 9.0),
        ]
        groups = plan_batches(space, requests)
        assert len(groups) == 1
        assert groups[0].shared

    def test_kinds_never_mix(self, serve_framework, query_positions):
        position = query_positions[0]
        requests = [
            QueryRequest.range_query(position, 5.0),
            QueryRequest.knn(position, k=3),
        ]
        groups = plan_batches(serve_framework.space, requests)
        assert len(groups) == 2

    def test_pt2pt_groups_by_source(self, serve_framework, query_positions):
        source = query_positions[0]
        requests = [
            QueryRequest.pt2pt(source, query_positions[1]),
            QueryRequest.pt2pt(source, query_positions[2]),
            QueryRequest.pt2pt(query_positions[3], query_positions[1]),
        ]
        groups = plan_batches(serve_framework.space, requests)
        assert [len(g.requests) for g in groups] == [2, 1]

    def test_unlocatable_position_gets_a_singleton(
        self, serve_framework, query_positions
    ):
        outside = Point(500.0, 500.0)
        requests = [
            QueryRequest.range_query(query_positions[0], 5.0),
            QueryRequest.range_query(outside, 5.0),
        ]
        groups = plan_batches(serve_framework.space, requests)
        assert len(groups) == 2
        results = execute_group(serve_framework, groups[1])
        assert isinstance(results[0][1], Exception)


class TestBitIdentical:
    """Queries over shared scans must equal sequential execution exactly —
    same ids, same floats, same ordering — on both distance backends."""

    def test_range_matches_sequential(self, backend_framework, query_positions):
        scans = SharedDoorScans(backend_framework.distance_index)
        for position in query_positions:
            for radius in (3.0, 8.0, 15.0):
                assert range_query(
                    backend_framework, position, radius, door_scans=scans
                ) == range_query(backend_framework, position, radius)
        assert scans.rows_reused > 0

    def test_knn_matches_sequential(self, backend_framework, query_positions):
        scans = SharedDoorScans(backend_framework.distance_index)
        for position in query_positions:
            for k in (1, 3, 10):
                assert knn_query(
                    backend_framework, position, k, door_scans=scans
                ) == knn_query(backend_framework, position, k)
        assert scans.rows_reused > 0

    def test_shared_scan_stops_where_the_backend_stops(
        self, backend_framework
    ):
        index = backend_framework.distance_index
        scans = SharedDoorScans(index)
        for door_id in index.door_ids:
            for bound in (None, 0.0, 5.0, 12.5):
                assert list(scans.doors_by_distance(door_id, bound)) == list(
                    index.doors_by_distance(door_id, bound)
                )

    def test_pt2pt_matches_sequential(self, serve_framework, query_positions):
        space = serve_framework.space
        source = query_positions[0]
        targets = query_positions[1:]
        got = batched_pt2pt_distances(space, source, targets)
        want = [pt2pt_distance(space, source, target) for target in targets]
        assert got == want

    def test_pt2pt_same_partition_direct_candidate(
        self, serve_framework, query_positions
    ):
        space = serve_framework.space
        source = query_positions[0]
        got = batched_pt2pt_distances(space, source, [source])
        assert got == [pt2pt_distance(space, source, source)]
        assert got[0] == 0.0

    def test_executed_group_matches_sequential(
        self, backend_framework, query_positions
    ):
        position = query_positions[0]
        requests = [
            QueryRequest.range_query(position, radius)
            for radius in (4.0, 8.0, 16.0)
        ]
        (group,) = plan_batches(backend_framework.space, requests)
        for request, value in execute_group(backend_framework, group):
            assert value == range_query(
                backend_framework, request.position, request.radius
            )


class TestSharing:
    def test_rows_are_walked_once_per_batch(
        self, backend_framework, query_positions
    ):
        scans = SharedDoorScans(backend_framework.distance_index)
        position = query_positions[0]
        range_query(backend_framework, position, 12.0, door_scans=scans)
        opened_after_first = scans.rows_opened
        assert opened_after_first > 0
        range_query(backend_framework, position, 12.0, door_scans=scans)
        knn_query(backend_framework, position, 5, door_scans=scans)
        assert scans.rows_opened == opened_after_first
        assert scans.rows_reused > 0

    def test_shared_row_prefix_grows_to_deepest_consumer(
        self, backend_framework, query_positions
    ):
        scans = SharedDoorScans(backend_framework.distance_index)
        position = query_positions[0]
        shallow = range_query(
            backend_framework, position, 2.0, door_scans=scans
        )
        deep = range_query(backend_framework, position, 20.0, door_scans=scans)
        assert set(shallow) <= set(deep)
        assert deep == range_query(backend_framework, position, 20.0)

    def test_a_scan_that_dies_mid_row_is_not_shared_short(
        self, backend_framework, query_positions
    ):
        class DiesOnce:
            """A backend whose first sorted scan is lost after two doors."""

            def __init__(self, inner):
                self.inner = inner
                self.armed = True

            def doors_by_distance(self, door_id, max_distance=None):
                scan = self.inner.doors_by_distance(door_id, max_distance)
                for n, pair in enumerate(scan):
                    if self.armed and n == 2:
                        self.armed = False
                        raise CorruptIndexError("index lost mid-scan")
                    yield pair

        position = query_positions[0]
        scans = SharedDoorScans(DiesOnce(backend_framework.distance_index))
        with pytest.raises(CorruptIndexError):
            range_query(backend_framework, position, 50.0, door_scans=scans)
        assert range_query(
            backend_framework, position, 50.0, door_scans=scans
        ) == range_query(backend_framework, position, 50.0)

    def test_unreachable_pt2pt_target_is_inf_not_error(self, serve_framework):
        space = serve_framework.space
        # Distances to a same-position target are exact; unreachable pairs
        # must come back inf without poisoning reachable ones.
        from tests.queries.conftest import random_point_in
        import random

        rng = random.Random(5)
        indoor = [p for p in space.partition_ids if p != 0]
        source = random_point_in(space, rng, indoor)
        target = random_point_in(space, rng, indoor)
        values = batched_pt2pt_distances(space, source, [target, source])
        assert values[1] == 0.0
        assert values[0] == pt2pt_distance(space, source, target)
        assert all(v >= 0.0 or math.isinf(v) for v in values)
