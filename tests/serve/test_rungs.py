"""One evaluator per (query kind × ladder rung), shared by every facade.

The rung table :data:`repro.runtime.ladder.RUNGS` is the only place a
rung is evaluated: a :class:`QueryService` request served at a degraded
rung, a :class:`ResilientQueryEngine` query forced down to that rung and
the sharded router's shed path must all return the table's answer.
"""

from types import SimpleNamespace

import pytest

from repro.exceptions import DeadlineExceededError
from repro.runtime import ResilientQueryEngine
from repro.runtime.ladder import RUNGS, QualityLevel
from repro.serve import CircuitBreaker, QueryKind, QueryRequest, QueryService
from repro.shard.placement import FloorPlacement
from repro.shard.router import ScatterGatherRouter


def _request(kind, source, target):
    if kind is QueryKind.RANGE:
        return QueryRequest.range_query(source, 9.0)
    if kind is QueryKind.KNN:
        return QueryRequest.knn(source, k=4)
    return QueryRequest.pt2pt(source, target)


def _resilient(engine, request):
    if request.kind is QueryKind.RANGE:
        return engine.range_query(request.position, request.radius)
    if request.kind is QueryKind.KNN:
        return engine.knn(request.position, request.k)
    return engine.distance(request.position, request.target)


def _expired(framework, request, deadline):
    raise DeadlineExceededError("rung forced out of time", budget=0.0)


def _pairs(query_positions):
    return list(zip(query_positions[:4], query_positions[4:8]))


@pytest.mark.parametrize("level", list(QualityLevel), ids=lambda lv: lv.name)
@pytest.mark.parametrize("kind", list(QueryKind), ids=lambda k: k.value)
def test_every_facade_answers_from_the_rung_table(
    serve_framework, query_positions, monkeypatch, kind, level
):
    requests = [_request(kind, s, t) for s, t in _pairs(query_positions)]
    expected = [RUNGS[kind][level](serve_framework, r, None) for r in requests]

    # QueryService: the exact path, or an open breaker's fallback rung.
    breaker = None
    if level is not QualityLevel.EXACT_INDEXED:
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_ops=10_000, fallback=level
        )
        breaker.record_failure()
    service = QueryService(serve_framework, breaker=breaker)
    responses = [service.execute(r) for r in requests]
    assert [r.quality for r in responses] == [level] * len(requests)
    assert [r.value for r in responses] == expected

    # ResilientQueryEngine: every rung above ``level`` runs out of time.
    above = [lv for lv in QualityLevel if lv > level]
    for higher in above:
        monkeypatch.setitem(RUNGS[kind], higher, _expired)
    engine = ResilientQueryEngine(serve_framework)
    results = [_resilient(engine, r) for r in requests]
    for result, value in zip(results, expected):
        assert result.quality is level
        assert result.value == value
        assert sorted(f.level for f in result.failures) == above


@pytest.mark.parametrize("kind", list(QueryKind), ids=lambda k: k.value)
def test_router_shed_path_is_the_euclidean_rung(
    serve_framework, query_positions, kind
):
    router = ScatterGatherRouter(
        SimpleNamespace(fence_epoch=0),
        FloorPlacement.for_space(serve_framework.space, 3),
        serve_framework,
    )
    euclidean = RUNGS[kind][QualityLevel.EUCLIDEAN]
    for source, target in _pairs(query_positions):
        request = _request(kind, source, target)
        response = router.shed_execute(request)
        assert response.quality is QualityLevel.EUCLIDEAN
        assert response.value == euclidean(serve_framework, request, None)
