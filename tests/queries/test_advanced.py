"""Tests for the composite distance-aware queries (§VII compositions)."""

import math
import random

import pytest

from repro.distance import pt2pt_distance_refined
from repro.exceptions import QueryError, StaleIndexError
from repro.geometry import Point, Segment, rectangle
from repro.index import IndexFramework, IndoorObject
from repro.model import IndoorSpaceBuilder
from repro.model.figure1 import ROOM_11, ROOM_12, build_figure1
from repro.queries import (
    aggregate_nn,
    closest_pair,
    distance_join,
    distances_to_all_objects,
    range_query,
    range_query_with_distances,
)
from tests.queries.conftest import random_point_in


class TestRangeWithDistances:
    def test_same_ids_as_plain_range(self, populated_figure1):
        framework = populated_figure1
        rng = random.Random(31)
        for _ in range(6):
            q = random_point_in(framework.space, rng)
            radius = rng.uniform(2.0, 20.0)
            plain = range_query(framework, q, radius)
            with_distances = range_query_with_distances(framework, q, radius)
            assert sorted(oid for oid, _ in with_distances) == plain

    def test_distances_are_exact_pt2pt(self, populated_figure1):
        framework = populated_figure1
        rng = random.Random(33)
        q = random_point_in(framework.space, rng)
        for object_id, distance in range_query_with_distances(framework, q, 15.0):
            obj = framework.objects.get(object_id)
            assert distance == pytest.approx(
                pt2pt_distance_refined(framework.space, q, obj.position)
            )

    def test_sorted_by_distance(self, populated_figure1):
        rng = random.Random(35)
        q = random_point_in(populated_figure1.space, rng)
        results = range_query_with_distances(populated_figure1, q, 20.0)
        distances = [d for _, d in results]
        assert distances == sorted(distances)

    def test_negative_radius_raises(self, populated_figure1):
        with pytest.raises(QueryError):
            range_query_with_distances(populated_figure1, Point(5, 5), -1.0)

    def test_no_index_variant_matches(self, populated_figure1):
        rng = random.Random(36)
        q = random_point_in(populated_figure1.space, rng)
        assert range_query_with_distances(
            populated_figure1, q, 12.0, use_index=True
        ) == pytest.approx(
            range_query_with_distances(populated_figure1, q, 12.0, use_index=False)
        )


class TestDistancesToAll:
    def test_covers_every_reachable_object(self, populated_figure1):
        framework = populated_figure1
        rng = random.Random(37)
        q = random_point_in(framework.space, rng)
        distances = distances_to_all_objects(framework, q)
        assert len(distances) == len(framework.objects)
        for obj in framework.objects:
            assert distances[obj.object_id] == pytest.approx(
                pt2pt_distance_refined(framework.space, q, obj.position)
            )

    def test_excludes_unreachable_objects(self):
        builder = IndoorSpaceBuilder()
        builder.add_partition(1, rectangle(0, 0, 10, 10))
        builder.add_partition(2, rectangle(10, 0, 14, 4))
        builder.add_door(
            1, Segment(Point(10, 1), Point(10, 3)), connects=(2, 1), one_way=True
        )
        framework = IndexFramework.build(
            builder.build(), [IndoorObject(1, Point(12, 2))]
        )
        assert distances_to_all_objects(framework, Point(5, 5)) == {}


class TestDistanceJoin:
    @pytest.fixture
    def small_framework(self):
        builder = IndoorSpaceBuilder()
        builder.add_partition(1, rectangle(0, 0, 10, 10))
        builder.add_partition(2, rectangle(10, 0, 20, 10))
        builder.add_door(1, Segment(Point(10, 4), Point(10, 6)), connects=(1, 2))
        objects = [
            IndoorObject(1, Point(1, 5)),
            IndoorObject(2, Point(3, 5)),
            IndoorObject(3, Point(11, 5)),
        ]
        return IndexFramework.build(builder.build(), objects)

    def test_join_pairs(self, small_framework):
        pairs = distance_join(small_framework, 2.5)
        assert pairs == [(1, 2, pytest.approx(2.0))]

    def test_join_through_door(self, small_framework):
        pairs = distance_join(small_framework, 9.0)
        ids = {(a, b) for a, b, _ in pairs}
        assert (2, 3) in ids  # 3->2 is 8 m through the door
        assert (1, 2) in ids

    def test_each_pair_once(self, populated_figure1):
        pairs = distance_join(populated_figure1, 5.0)
        keys = [(a, b) for a, b, _ in pairs]
        assert len(keys) == len(set(keys))
        assert all(a < b for a, b in keys)

    def test_join_matches_brute_force(self, small_framework):
        space = small_framework.space
        objects = list(small_framework.objects)
        expected = set()
        for i, a in enumerate(objects):
            for b in objects[i + 1 :]:
                if pt2pt_distance_refined(space, a.position, b.position) <= 9.0:
                    expected.add(tuple(sorted((a.object_id, b.object_id))))
        got = {(a, b) for a, b, _ in distance_join(small_framework, 9.0)}
        assert got == expected

    def test_negative_radius_raises(self, small_framework):
        with pytest.raises(QueryError):
            distance_join(small_framework, -1.0)


class TestAggregateNN:
    @pytest.fixture
    def meeting_framework(self):
        builder = IndoorSpaceBuilder()
        builder.add_partition(1, rectangle(0, 0, 10, 10))
        builder.add_partition(2, rectangle(10, 0, 20, 10))
        builder.add_partition(3, rectangle(20, 0, 30, 10))
        builder.add_door(1, Segment(Point(10, 4), Point(10, 6)), connects=(1, 2))
        builder.add_door(2, Segment(Point(20, 4), Point(20, 6)), connects=(2, 3))
        # The west and east objects sit off the door axis, so reaching them
        # from the far member costs a detour — otherwise every object on the
        # straight line between two members ties on the sum aggregate.
        objects = [
            IndoorObject(1, Point(5, 1)),     # west room, off-axis
            IndoorObject(2, Point(15, 5)),    # middle room, on the axis
            IndoorObject(3, Point(25, 1)),    # east room, off-axis
        ]
        return IndexFramework.build(builder.build(), objects)

    def test_sum_aggregate_picks_the_middle(self, meeting_framework):
        members = [Point(2, 5), Point(28, 5)]
        (winner, score) = aggregate_nn(meeting_framework, members, k=1)[0]
        assert winner == 2
        assert score == pytest.approx(13.0 + 13.0)

    def test_max_aggregate(self, meeting_framework):
        members = [Point(2, 5), Point(28, 5)]
        (winner, score) = aggregate_nn(
            meeting_framework, members, k=1, agg="max"
        )[0]
        assert winner == 2
        assert score == pytest.approx(13.0)

    def test_k_results_sorted(self, meeting_framework):
        results = aggregate_nn(meeting_framework, [Point(2, 5)], k=3)
        scores = [s for _, s in results]
        assert scores == sorted(scores)
        assert len(results) == 3

    def test_validation(self, meeting_framework):
        with pytest.raises(QueryError):
            aggregate_nn(meeting_framework, [], k=1)
        with pytest.raises(QueryError):
            aggregate_nn(meeting_framework, [Point(2, 5)], k=0)
        with pytest.raises(QueryError):
            aggregate_nn(meeting_framework, [Point(2, 5)], agg="median")

    def test_matches_brute_force(self, populated_figure1):
        framework = populated_figure1
        rng = random.Random(39)
        members = [random_point_in(framework.space, rng) for _ in range(3)]
        (winner, score) = aggregate_nn(framework, members, k=1)[0]
        space = framework.space
        best = min(
            (
                sum(
                    pt2pt_distance_refined(space, m, obj.position)
                    for m in members
                ),
                obj.object_id,
            )
            for obj in framework.objects
        )
        assert score == pytest.approx(best[0])


class TestClosestPair:
    def test_obvious_pair(self):
        builder = IndoorSpaceBuilder()
        builder.add_partition(1, rectangle(0, 0, 10, 10))
        objects = [
            IndoorObject(1, Point(1, 1)),
            IndoorObject(2, Point(1.5, 1)),
            IndoorObject(3, Point(9, 9)),
        ]
        framework = IndexFramework.build(builder.build(), objects)
        assert closest_pair(framework) == (1, 2, pytest.approx(0.5))

    def test_fewer_than_two_objects(self):
        builder = IndoorSpaceBuilder()
        builder.add_partition(1, rectangle(0, 0, 10, 10))
        framework = IndexFramework.build(
            builder.build(), [IndoorObject(1, Point(1, 1))]
        )
        assert closest_pair(framework) is None

    def test_matches_brute_force(self, populated_figure1):
        framework = populated_figure1
        space = framework.space
        objects = list(framework.objects)
        best = math.inf
        for i, a in enumerate(objects):
            for b in objects[i + 1 :]:
                forward = pt2pt_distance_refined(space, a.position, b.position)
                backward = pt2pt_distance_refined(space, b.position, a.position)
                best = min(best, forward, backward)
        pair = closest_pair(framework)
        assert pair is not None
        assert pair[2] == pytest.approx(best)


Q_FIG1 = Point(5.0, 5.2)

#: One call of each composite query, by name.
COMPOSITES = {
    "range_query_with_distances": lambda fw: range_query_with_distances(
        fw, Q_FIG1, 12.0
    ),
    "distances_to_all_objects": lambda fw: distances_to_all_objects(fw, Q_FIG1),
    "distance_join": lambda fw: distance_join(fw, 4.0),
    "aggregate_nn": lambda fw: aggregate_nn(fw, [Q_FIG1, Point(6.2, 8.0)], k=3),
    "closest_pair": closest_pair,
}


def _figure1_framework(backend):
    space = build_figure1()
    rng = random.Random(2024)
    indoor_ids = [p for p in space.partition_ids if p != 0]
    objects = [
        IndoorObject(i, random_point_in(space, rng, indoor_ids)) for i in range(30)
    ]
    return IndexFramework.build(space, objects, backend=backend)


class TestCompositeFreshness:
    """Every composite query refuses an index older than the topology,
    as range_query and knn_query do."""

    @pytest.mark.parametrize("backend", ["matrix", "labels"])
    @pytest.mark.parametrize("name", sorted(COMPOSITES))
    def test_raises_on_a_stale_framework(self, backend, name):
        framework = _figure1_framework(backend)
        framework.space.add_door(
            99, Segment(Point(4, 7), Point(4, 8)), connects=(ROOM_12, ROOM_11)
        )
        with pytest.raises(StaleIndexError):
            COMPOSITES[name](framework)

    def test_fresh_frameworks_answer_as_brute_force(self):
        matrix_fw = _figure1_framework("matrix")
        matrix = {name: call(matrix_fw) for name, call in COMPOSITES.items()}
        labels_fw = _figure1_framework("labels")
        assert {name: call(labels_fw) for name, call in COMPOSITES.items()} == matrix
        brute = {
            obj.object_id: pt2pt_distance_refined(
                matrix_fw.space, Q_FIG1, obj.position
            )
            for obj in matrix_fw.objects
        }
        assert matrix["distances_to_all_objects"] == {
            object_id: distance
            for object_id, distance in brute.items()
            if not math.isinf(distance)
        }
        assert matrix["range_query_with_distances"]
        assert matrix["distance_join"]

    @pytest.mark.parametrize(
        "call",
        [
            lambda fw: range_query_with_distances(fw, Point(math.nan, 1.0), 5.0),
            lambda fw: range_query_with_distances(fw, Point(5.0, 5.2), math.nan),
            lambda fw: distances_to_all_objects(fw, Point(math.inf, 1.0)),
            lambda fw: distance_join(fw, math.nan),
            lambda fw: aggregate_nn(fw, [Point(5.0, math.nan)]),
        ],
    )
    def test_non_finite_inputs_raise(self, populated_figure1, call):
        with pytest.raises(QueryError):
            call(populated_figure1)
