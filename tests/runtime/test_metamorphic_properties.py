"""Property-based metamorphic invariants across the degradation ladder.

The chaos oracles (:mod:`repro.chaos.oracles`) assume three metamorphic
theorems of indoor distance and one documented guarantee per
:class:`~repro.runtime.ladder.QualityLevel` rung.  These properties verify
the assumptions themselves on random grid plans, so a campaign verdict
rests on checked foundations:

* d_E(p, q) ≤ d_I(p, q) at every rung;
* d(p, q) = d(q, p) on fully-undirected plans (exact rungs);
* d(p, q) ≤ d(p, m) + d(m, q) (exact rungs);
* range/kNN/pt2pt per-rung bounds: EUCLIDEAN is a lower bound (range
  superset), DOOR_COUNT an upper bound (no false positives),
  EXACT_FALLBACK equals the indexed exact answer.
"""

import math

from hypothesis import HealthCheck, given, settings

from repro.chaos.oracles import (
    euclidean_bound_violation,
    space_is_undirected,
    symmetry_violation,
    triangle_violation,
)
from repro.distance.door_count import door_count_pt2pt
from repro.distance.point_to_point import pt2pt_distance_refined
from repro.index import IndexFramework
from repro.queries import brute_force_knn, brute_force_range
from repro.queries.engine import QueryEngine
from repro.runtime.ladder import (
    door_count_knn,
    door_count_range,
    euclidean_knn,
    euclidean_lower_bound,
    euclidean_range,
    located,
)
from repro.synthetic.workload import WorkloadOp
from tests.strategies import metamorphic_cases, workload_cases

RELAXED = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

EPS = 1e-6


def _op(kind, position, **kwargs) -> WorkloadOp:
    return WorkloadOp(index=0, kind=kind, position=position, **kwargs)


class TestDistanceInvariants:
    @RELAXED
    @given(metamorphic_cases())
    def test_euclidean_never_exceeds_indoor_distance(self, case):
        plan, source, target, _ = case
        engine = QueryEngine.for_space(plan.space)
        distance = engine.distance(source, target)
        op = _op("pt2pt", source, target=target)
        assert euclidean_bound_violation(op, distance) is None

    @RELAXED
    @given(metamorphic_cases(one_way_probability=0.0))
    def test_symmetry_on_undirected_plans(self, case):
        plan, source, target, _ = case
        assert space_is_undirected(plan.space)
        engine = QueryEngine.for_space(plan.space)
        forward = engine.distance(source, target)
        backward = engine.distance(target, source)
        op = _op("pt2pt", source, target=target)
        assert symmetry_violation(op, forward, backward) is None

    @RELAXED
    @given(metamorphic_cases(one_way_probability=0.3))
    def test_triangle_inequality_through_pivot(self, case):
        plan, source, target, pivot = case
        engine = QueryEngine.for_space(plan.space)
        direct = engine.distance(source, target)
        via_first = engine.distance(source, pivot)
        via_second = engine.distance(pivot, target)
        op = _op("pt2pt", source, target=target, pivot=pivot)
        assert triangle_violation(op, direct, via_first, via_second) is None

    @RELAXED
    @given(metamorphic_cases(one_way_probability=0.3))
    def test_every_rung_respects_the_euclidean_floor(self, case):
        plan, source, target, _ = case
        framework = IndexFramework.build(plan.space)
        engine = QueryEngine(framework)
        bound = euclidean_lower_bound(source, target)
        for served in (
            engine.distance(source, target),               # EXACT_INDEXED
            pt2pt_distance_refined(plan.space, source, target),  # FALLBACK
            door_count_pt2pt(plan.space, source, target).walking_distance,
            bound,                                         # EUCLIDEAN rung
        ):
            if not math.isinf(served):
                assert served >= bound - EPS * max(1.0, bound)


class TestRungGuarantees:
    """Every QualityLevel evaluator honours its documented bound."""

    @RELAXED
    @given(workload_cases())
    def test_range_rungs(self, case):
        plan, ops = case
        framework = IndexFramework.build(
            plan.space,
            [obj for obj, _ in _objects_for(plan)],
        )
        engine = QueryEngine(framework)
        for op in ops:
            if op.kind != "range":
                continue
            truth = engine.range_query(op.position, op.radius)
            fallback = brute_force_range(
                framework.space, framework.objects, op.position, op.radius
            )
            assert fallback == truth  # EXACT_FALLBACK: identical answer
            door_count = door_count_range(framework, op.position, op.radius)
            assert set(door_count) <= set(truth)  # no false positives
            euclid = euclidean_range(located(framework), op.position, op.radius)
            assert set(truth) <= set(euclid)  # never misses a member

    @RELAXED
    @given(workload_cases())
    def test_knn_rungs(self, case):
        plan, ops = case
        framework = IndexFramework.build(
            plan.space,
            [obj for obj, _ in _objects_for(plan)],
        )
        engine = QueryEngine(framework)
        for op in ops:
            if op.kind != "knn":
                continue
            truth = engine.knn(op.position, op.k)
            fallback = brute_force_knn(
                framework.space, framework.objects, op.position, op.k
            )
            assert [oid for oid, _ in fallback] == [oid for oid, _ in truth]
            for oid, reported in door_count_knn(framework, op.position, op.k):
                true_distance = engine.distance(
                    op.position, engine.get_object(oid).position
                )
                assert reported >= true_distance - EPS * max(1.0, true_distance)
            for oid, reported in euclidean_knn(
                located(framework), op.position, op.k
            ):
                true_distance = engine.distance(
                    op.position, engine.get_object(oid).position
                )
                assert reported <= true_distance + EPS * max(1.0, true_distance)

    @RELAXED
    @given(workload_cases())
    def test_pt2pt_rungs(self, case):
        plan, ops = case
        framework = IndexFramework.build(plan.space)
        engine = QueryEngine(framework)
        for op in ops:
            if op.kind != "pt2pt":
                continue
            truth = engine.distance(op.position, op.target)
            fallback = pt2pt_distance_refined(
                plan.space, op.position, op.target
            )
            assert math.isclose(fallback, truth, rel_tol=1e-9, abs_tol=1e-9)
            upper = door_count_pt2pt(
                plan.space, op.position, op.target
            ).walking_distance
            if not math.isinf(truth):
                assert upper >= truth - EPS * max(1.0, truth)
            lower = euclidean_lower_bound(op.position, op.target)
            assert math.isinf(truth) or lower <= truth + EPS * max(1.0, truth)


def _objects_for(plan):
    """A small deterministic object population for a grid plan."""
    from repro.synthetic.objects import generate_objects

    return generate_objects(plan.space, 8, seed=plan.seed)
