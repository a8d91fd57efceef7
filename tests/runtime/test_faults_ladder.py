"""Acceptance tests for the fault harness and degradation ladder.

With every fault injected by ``runtime/faults.py`` — corrupt M_d2d, dropped
DPT records, mid-query index loss, stale epoch — range and kNN queries on
the Figure-1 plan must still return the *same result sets* as the exact
path, via a lower ladder rung, tagged correctly.  Never a wrong answer,
never a hang.
"""

import math

import pytest

from repro.chaos import LatencyDistanceIndex, install_latency
from repro.exceptions import CorruptIndexError, QueryError
from repro.model.figure1 import P, Q
from repro.queries import knn_query, range_query
from repro.runtime import (
    QualityLevel,
    ResilientQueryEngine,
    check_index_integrity,
    corrupt_md2d,
    drop_dpt_records,
    install_flaky_distance_index,
    require_index_integrity,
)
from repro.runtime.faults import FlakyDistanceIndex

RADII = [4.0, 9.0, 15.0]


@pytest.fixture
def resilient(figure1_framework):
    return ResilientQueryEngine(figure1_framework)


def _exact_range(framework, radius):
    return range_query(framework, P, radius)


def _exact_knn(framework, k):
    return knn_query(framework, P, k)


class TestMd2dCorruption:
    @pytest.mark.parametrize("mode", ["nan", "negative", "asymmetric"])
    def test_range_results_survive_corruption(
        self, figure1_framework, resilient, mode
    ):
        expected = {r: _exact_range(figure1_framework, r) for r in RADII}
        handle = corrupt_md2d(figure1_framework, mode, count=4, seed=11)
        try:
            for radius in RADII:
                result = resilient.range_query(P, radius)
                assert result.value == expected[radius], (mode, radius)
                assert result.quality is QualityLevel.EXACT_FALLBACK
                assert result.quality.is_exact
                assert result.failures  # the indexed rung was tried and failed
                assert result.failures[0].level is QualityLevel.EXACT_INDEXED
        finally:
            handle.undo()
        # After undo the exact indexed rung answers again.
        restored = resilient.range_query(P, RADII[0])
        assert restored.quality is QualityLevel.EXACT_INDEXED
        assert restored.value == expected[RADII[0]]

    @pytest.mark.parametrize("mode", ["nan", "negative"])
    def test_knn_results_survive_corruption(
        self, figure1_framework, resilient, mode
    ):
        expected = _exact_knn(figure1_framework, 5)
        handle = corrupt_md2d(figure1_framework, mode, count=3, seed=7)
        try:
            result = resilient.knn(P, k=5)
            assert result.quality is QualityLevel.EXACT_FALLBACK
            assert [oid for oid, _ in result.value] == [
                oid for oid, _ in expected
            ]
            for (_, got), (_, want) in zip(result.value, expected):
                assert got == pytest.approx(want)
        finally:
            handle.undo()

    def test_integrity_check_names_the_fault(self, figure1_framework):
        handle = corrupt_md2d(figure1_framework, "nan", count=2, seed=1)
        try:
            issues = check_index_integrity(figure1_framework)
            assert any(issue.code == "md2d-nan" for issue in issues)
            with pytest.raises(CorruptIndexError):
                require_index_integrity(figure1_framework)
        finally:
            handle.undo()
        assert check_index_integrity(figure1_framework) == []

    def test_corruption_is_seed_deterministic(self, figure1_framework):
        first = corrupt_md2d(figure1_framework, "negative", count=3, seed=42)
        cells_first = first.cells
        first.undo()
        second = corrupt_md2d(figure1_framework, "negative", count=3, seed=42)
        cells_second = second.cells
        second.undo()
        assert cells_first == cells_second

    def test_asymmetric_corruption_detected_without_one_way_doors(self):
        # A plan with no one-way doors must have a symmetric matrix, so the
        # asymmetry check fires there (Figure 1 has one-way doors, where
        # asymmetry is legitimate and the check stays silent).
        from repro.geometry import Point, Segment, rectangle
        from repro.index import IndexFramework
        from repro.model import IndoorSpaceBuilder

        builder = IndoorSpaceBuilder()
        builder.add_partition(1, rectangle(0, 0, 5, 5))
        builder.add_partition(2, rectangle(5, 0, 10, 5))
        builder.add_partition(3, rectangle(0, 5, 10, 8))
        builder.add_door(1, Segment(Point(5, 1), Point(5, 2)), connects=(1, 2))
        builder.add_door(2, Segment(Point(2, 5), Point(3, 5)), connects=(1, 3))
        builder.add_door(3, Segment(Point(7, 5), Point(8, 5)), connects=(2, 3))
        framework = IndexFramework.build(builder.build())
        assert check_index_integrity(framework) == []
        handle = corrupt_md2d(framework, "asymmetric", count=1, seed=0)
        try:
            issues = check_index_integrity(framework)
            assert any(i.code == "md2d-asymmetric" for i in issues)
        finally:
            handle.undo()


class TestDroppedDptRecords:
    def test_range_results_survive_dropped_records(
        self, figure1_framework, resilient
    ):
        expected = {r: _exact_range(figure1_framework, r) for r in RADII}
        handle = drop_dpt_records(figure1_framework, count=3, seed=5)
        try:
            for radius in RADII:
                result = resilient.range_query(P, radius)
                assert result.value == expected[radius]
                assert result.quality is QualityLevel.EXACT_FALLBACK
        finally:
            handle.undo()

    def test_explicit_door_selection(self, figure1_framework, resilient):
        expected = _exact_knn(figure1_framework, 3)
        handle = drop_dpt_records(figure1_framework, door_ids=[12, 15])
        try:
            assert not figure1_framework.dpt.has_record(12)
            issues = check_index_integrity(figure1_framework)
            assert any(issue.code == "dpt-missing" for issue in issues)
            result = resilient.knn(P, k=3)
            assert result.quality is QualityLevel.EXACT_FALLBACK
            assert [oid for oid, _ in result.value] == [
                oid for oid, _ in expected
            ]
        finally:
            handle.undo()
        assert figure1_framework.dpt.has_record(12)


class TestMidQueryIndexLoss:
    def test_range_survives_index_loss_mid_scan(
        self, figure1_framework, resilient
    ):
        expected = _exact_range(figure1_framework, 12.0)
        handle = install_flaky_distance_index(figure1_framework, fail_after=2)
        try:
            result = resilient.range_query(P, 12.0)
            assert result.value == expected
            assert result.quality is QualityLevel.EXACT_FALLBACK
            assert any(
                isinstance(f.error, CorruptIndexError) for f in result.failures
            )
        finally:
            handle.undo()

    def test_loss_before_first_lookup(self, figure1_framework, resilient):
        expected = _exact_knn(figure1_framework, 4)
        handle = install_flaky_distance_index(figure1_framework, fail_after=0)
        try:
            result = resilient.knn(P, k=4)
            assert result.quality is QualityLevel.EXACT_FALLBACK
            assert [oid for oid, _ in result.value] == [
                oid for oid, _ in expected
            ]
        finally:
            handle.undo()


class TestDeadlineDegradation:
    def test_zero_deadline_returns_euclidean_superset(
        self, figure1_framework, resilient
    ):
        exact = set(_exact_range(figure1_framework, 10.0))
        result = resilient.range_query(P, 10.0, deadline=0)
        assert result.quality is QualityLevel.EUCLIDEAN
        assert not result.quality.is_exact
        # The Euclidean rung filters on a lower bound: it can only
        # over-report, never miss a true member.
        assert exact <= set(result.value)
        # Every upper rung recorded its deadline failure.
        assert [f.level for f in result.failures] == [
            QualityLevel.EXACT_INDEXED,
            QualityLevel.EXACT_FALLBACK,
            QualityLevel.DOOR_COUNT,
        ]

    def test_door_count_range_never_false_positive(
        self, figure1_framework, resilient
    ):
        # Force the ladder past the exact rungs but leave door-count usable:
        # its walking distance upper-bounds the true walk, so its members
        # are a subset of the exact answer.
        from repro.runtime.ladder import door_count_range

        exact = set(_exact_range(figure1_framework, 9.0))
        approx = set(door_count_range(figure1_framework, P, 9.0))
        assert approx <= exact

    def test_strict_mode_reraises(self, figure1_framework):
        from repro.exceptions import DeadlineExceededError

        strict = ResilientQueryEngine(
            figure1_framework, degrade_on_deadline=False
        )
        with pytest.raises(DeadlineExceededError):
            strict.range_query(P, 10.0, deadline=0)


class TestInputValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_radius_rejected(self, figure1_framework, bad):
        with pytest.raises(QueryError):
            range_query(figure1_framework, P, bad)

    def test_nan_position_rejected_by_range(self, figure1_framework):
        from repro.geometry import Point

        with pytest.raises(QueryError):
            range_query(figure1_framework, Point(float("nan"), 5.0), 5.0)

    def test_nan_position_rejected_by_knn(self, figure1_framework):
        from repro.geometry import Point

        with pytest.raises(QueryError):
            knn_query(figure1_framework, Point(5.0, float("inf")), 2)

    def test_nan_position_rejected_by_engine_distance(self, figure1_framework):
        from repro.geometry import Point
        from repro.queries import QueryEngine

        engine = QueryEngine(figure1_framework)
        with pytest.raises(QueryError):
            engine.distance(Point(float("nan"), 1.0), Q)
        with pytest.raises(QueryError):
            engine.distance(P, Point(1.0, float("-inf")))

    def test_resilient_validates_before_degrading(self, resilient):
        # Bad inputs are caller errors: they must raise, not degrade.
        with pytest.raises(QueryError):
            resilient.range_query(P, float("nan"))
        with pytest.raises(QueryError):
            resilient.distance(P, Q, deadline=-1.0)


class TestDistanceLadder:
    def test_exact_by_default(self, figure1_framework, resilient):
        from repro.distance.point_to_point import pt2pt_distance

        exact = pt2pt_distance(figure1_framework.space, P, Q)
        result = resilient.distance(P, Q)
        assert result.value == pytest.approx(exact)
        assert result.quality is QualityLevel.EXACT_INDEXED

    def test_zero_deadline_falls_to_euclidean_lower_bound(
        self, figure1_framework, resilient
    ):
        from repro.distance.point_to_point import pt2pt_distance

        exact = pt2pt_distance(figure1_framework.space, P, Q)
        result = resilient.distance(P, Q, deadline=0)
        assert result.quality is QualityLevel.EUCLIDEAN
        assert result.value <= exact + 1e-9
        assert result.value == pytest.approx(math.hypot(P.x - Q.x, P.y - Q.y))


#: Each distance-index proxy: its class and an installer that swaps it in.
PROXIES = {
    "flaky": (
        FlakyDistanceIndex,
        lambda fw: install_flaky_distance_index(fw, fail_after=100),
    ),
    "latency": (LatencyDistanceIndex, lambda fw: install_latency(fw, per_call_ms=0)),
}


@pytest.mark.parametrize("proxy_kind", sorted(PROXIES))
class TestIndexProxyProtocols:
    """Regression: a proxy's ``__getattr__`` must fail cleanly, not loop.

    ``copy.copy`` / ``pickle`` probe dunders (``__copy__``,
    ``__reduce_ex__``'s helpers, ``__setstate__``) on instances — and on
    *uninitialised* instances, where ``_inner`` does not exist yet.  The
    old delegation turned those probes into infinite recursion (every
    ``self._inner`` lookup re-entered ``__getattr__``) or leaked the inner
    index's answers for protocols the proxy never implemented.
    """

    def _install(self, framework, proxy_kind):
        PROXIES[proxy_kind][1](framework)
        return framework.distance_index

    def test_missing_dunder_raises_attribute_error(self, figure1_framework, proxy_kind):
        proxy = self._install(figure1_framework, proxy_kind)
        with pytest.raises(AttributeError):
            proxy.__copy__
        with pytest.raises(AttributeError):
            proxy.__deepcopy__

    def test_missing_inner_raises_attribute_error(self, proxy_kind):
        cls = PROXIES[proxy_kind][0]
        half_built = cls.__new__(cls)
        with pytest.raises(AttributeError):
            half_built.anything  # noqa: B018 — the lookup is the test

    def test_copy_does_not_recurse(self, figure1_framework, proxy_kind):
        import copy

        proxy = self._install(figure1_framework, proxy_kind)
        duplicate = copy.copy(proxy)
        assert duplicate._inner is proxy._inner

    def test_non_dunder_delegation_still_works(self, figure1_framework, proxy_kind):
        proxy = self._install(figure1_framework, proxy_kind)
        assert isinstance(proxy, PROXIES[proxy_kind][0])
        assert proxy.size == len(proxy.door_ids)
