"""Tests for continuous range / kNN monitoring.

The master property: after ANY sequence of insertions, moves, and removals,
each monitor's result must equal re-running the one-shot query from scratch.
"""

import random

import pytest

from repro import IndoorObject, Point, QueryEngine
from repro.distance.point_to_point import pt2pt_distance_memoized
from repro.exceptions import QueryError
from repro.model.figure1 import P, build_figure1
from repro.queries import knn_query, range_query
from repro.tracking import KnnMonitor, RangeMonitor, TrackingSession
from repro.tracking.monitors import EventKind
from tests.strategies import build_grid_plan


@pytest.fixture
def session():
    engine = QueryEngine.for_space(build_figure1())
    engine.add_objects(
        [
            IndoorObject(1, Point(6.5, 9.0)),   # room 13, near P
            IndoorObject(2, Point(1.0, 5.0)),   # hallway
            IndoorObject(3, Point(18.0, 8.0)),  # room 20, far
        ]
    )
    return TrackingSession(engine)


class TestRangeMonitor:
    def test_initial_result(self, session):
        watch = session.watch_range(P, 8.0)
        assert watch.result == [1, 2]

    def test_enter_event_on_add(self, session):
        watch = session.watch_range(P, 8.0)
        session.add_object(IndoorObject(4, Point(7.0, 7.0)))
        assert watch.result == [1, 2, 4]
        assert watch.events[-1].kind is EventKind.ENTER
        assert watch.events[-1].object_id == 4

    def test_no_event_for_far_add(self, session):
        watch = session.watch_range(P, 8.0)
        session.add_object(IndoorObject(4, Point(19.0, 9.0)))
        assert watch.result == [1, 2]
        assert watch.events == []

    def test_exit_event_on_remove(self, session):
        watch = session.watch_range(P, 8.0)
        session.remove_object(1)
        assert watch.result == [2]
        assert watch.events[-1].kind is EventKind.EXIT

    def test_move_in_and_out(self, session):
        watch = session.watch_range(P, 8.0)
        session.move_object(3, Point(6.5, 8.5))  # far object moves next to P
        assert 3 in watch.result
        assert watch.events[-1].kind is EventKind.ENTER
        session.move_object(3, Point(18.0, 8.0))  # and away again
        assert 3 not in watch.result
        assert watch.events[-1].kind is EventKind.EXIT

    def test_move_within_range_is_silent(self, session):
        watch = session.watch_range(P, 8.0)
        session.move_object(1, Point(6.8, 8.8))
        assert watch.result == [1, 2]
        assert watch.events == []

    def test_object_at_exactly_the_radius_is_a_member_from_the_start(self, session):
        # The monitor updates by ``pt2pt <= radius``; its initial members
        # must follow the same rule, also for an object on the boundary.
        position = Point(0.8, 7.8)
        session.add_object(IndoorObject(4, position))
        radius = pt2pt_distance_memoized(session.engine.framework.space, P, position)
        watch = session.watch_range(P, radius)
        assert 4 in watch.result
        session.move_object(4, position)
        assert 4 in watch.result
        assert watch.events == []

    def test_negative_radius_raises(self, session):
        with pytest.raises(QueryError):
            session.watch_range(P, -1.0)


class TestKnnMonitor:
    def test_initial_result(self, session):
        watch = session.watch_knn(P, 2)
        assert [oid for oid, _ in watch.result] == [1, 2]

    def test_add_closer_object_displaces(self, session):
        watch = session.watch_knn(P, 2)
        session.add_object(IndoorObject(4, Point(6.3, 8.1)))
        assert [oid for oid, _ in watch.result] == [4, 1]
        assert watch.events[-1].object_id == 4

    def test_remove_member_pulls_in_next(self, session):
        watch = session.watch_knn(P, 2)
        session.remove_object(1)
        assert [oid for oid, _ in watch.result] == [2, 3]

    def test_remove_non_member_is_silent(self, session):
        watch = session.watch_knn(P, 2)
        session.remove_object(3)
        assert [oid for oid, _ in watch.result] == [1, 2]
        assert watch.events == []

    def test_member_moving_away_lets_cutoff_object_in(self, session):
        watch = session.watch_knn(P, 2)
        session.move_object(1, Point(19.0, 9.0))  # member flees to room 20
        assert [oid for oid, _ in watch.result] == [2, 3]

    def test_k_validation(self, session):
        with pytest.raises(QueryError):
            session.watch_knn(P, 0)


class TestSession:
    def test_unwatch_freezes_monitor(self, session):
        watch = session.watch_range(P, 8.0)
        session.unwatch(watch)
        assert session.monitor_count == 0
        session.add_object(IndoorObject(4, Point(7.0, 7.0)))
        assert watch.result == [1, 2]  # frozen

    def test_multiple_monitors_updated_together(self, session):
        range_watch = session.watch_range(P, 8.0)
        knn_watch = session.watch_knn(P, 1)
        session.add_object(IndoorObject(4, Point(6.3, 8.1)))
        assert 4 in range_watch.result
        assert knn_watch.result[0][0] == 4


class TestAgainstScratchRecomputation:
    def test_random_churn_stays_exact(self):
        """The master property on a random plan with a long mutation mix."""
        plan = build_grid_plan(3, 3, seed=8)
        engine = QueryEngine.for_space(plan.space)
        session = TrackingSession(engine)
        rng = random.Random(5)
        next_id = 0
        for _ in range(8):
            session.add_object(
                IndoorObject(next_id, plan.random_interior_point(rng))
            )
            next_id += 1

        query_point = plan.random_interior_point(rng)
        range_watch = session.watch_range(query_point, 18.0)
        knn_watch = session.watch_knn(query_point, 4)

        for step in range(40):
            live = [o.object_id for o in engine.framework.objects]
            action = rng.choice(["add", "move", "move", "remove"])
            if action == "add" or not live:
                session.add_object(
                    IndoorObject(next_id, plan.random_interior_point(rng))
                )
                next_id += 1
            elif action == "move":
                session.move_object(
                    rng.choice(live), plan.random_interior_point(rng)
                )
            else:
                session.remove_object(rng.choice(live))

            framework = engine.framework
            assert range_watch.result == range_query(
                framework, query_point, 18.0
            ), f"range monitor diverged at step {step}"
            expected = knn_query(framework, query_point, 4)
            got = knn_watch.result
            assert [d for _, d in got] == pytest.approx(
                [d for _, d in expected]
            ), f"kNN monitor diverged at step {step}"
