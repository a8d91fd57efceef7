"""QueryService + limiter + retry-budget integration tests."""

import pytest

from repro.overload import AdaptiveConcurrencyLimiter, RetryBudget
from repro.serve import QueryKind, QueryRequest, QueryService


def range_request(position, radius=8.0):
    return QueryRequest(kind=QueryKind.RANGE, position=position, radius=radius)


@pytest.fixture
def limited_service(serve_framework):
    limiter = AdaptiveConcurrencyLimiter(
        slo_ms=250.0,
        initial_limit=8,
        min_limit=2,
        max_limit=32,
        adjust_every=4,
    )
    budget = RetryBudget(capacity=4.0)
    service = QueryService(
        serve_framework,
        workers=2,
        queue_capacity=16,
        enable_cache=False,
        limiter=limiter,
        retry_budget=budget,
    )
    service.start()
    yield service, limiter, budget
    service.stop()


class TestLimiterIntegration:
    def test_limiter_and_budget_adopt_the_service_registry(
        self, limited_service
    ):
        service, limiter, budget = limited_service
        assert limiter.metrics is service.metrics
        assert budget.metrics is service.metrics

    def test_served_requests_feed_the_limiter(
        self, limited_service, query_positions
    ):
        service, limiter, _ = limited_service
        responses = service.serve(
            [range_request(p) for p in query_positions]
        )
        assert all(r.value is not None for r in responses)
        # Every response observes exactly its ``latency_ms`` into the
        # limiter, closing three 4-observation windows.  All inside the
        # 250 ms SLO: every window is healthy and the limit climbs.  One
        # past it (a stalled host): that window's p99 breaches, or the
        # brake fires, and the limit falls.
        snapshot = limiter.snapshot()
        if all(r.latency_ms <= 250.0 for r in responses):
            assert snapshot["increases"] >= 1
            assert limiter.limit > 8
        else:
            assert snapshot["decreases"] >= 1

    def test_full_quality_answers_refill_the_budget(
        self, limited_service, query_positions
    ):
        service, _, budget = limited_service
        for _ in range(3):
            assert budget.try_spend()
        drained = budget.tokens
        responses = service.serve(
            [range_request(p) for p in query_positions]
        )
        assert budget.tokens > drained
        # Only full-quality answers deposit tokens: shed or breaker
        # responses must not finance the retries that keep a degraded
        # service degraded.
        full_quality = sum(
            1 for r in responses if not r.shed and not r.breaker
        )
        assert full_quality >= 1
        assert budget.snapshot()["successes"] == full_quality

    def test_admission_occupancy_uses_the_live_limit(self, serve_framework):
        # With the limiter installed, shed decisions divide queue depth
        # by limiter.limit, not the static queue capacity: a tiny limit
        # must make a modest backlog shed where the static bound would
        # not.  Exercised indirectly: a service whose limiter is pinned
        # at min_limit=1 sheds a burst submitted before workers start.
        limiter = AdaptiveConcurrencyLimiter(
            slo_ms=0.5,
            initial_limit=1,
            min_limit=1,
            max_limit=2,
        )
        service = QueryService(
            serve_framework,
            workers=1,
            queue_capacity=64,
            enable_cache=False,
            limiter=limiter,
        )
        try:
            objects = list(service.engine.framework.objects)
            burst = [
                range_request(obj.position, radius=12.0)
                for obj in objects[:12]
            ]
            responses = service.serve(burst)
            assert any(r.shed for r in responses)
        finally:
            service.stop()
