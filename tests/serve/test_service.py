"""QueryService end-to-end: concurrency, caching, epochs, shedding."""

import random
import threading

import pytest

from repro.exceptions import ReproError
from repro.index import IndexFramework
from repro.model.figure1 import D15
from repro.queries import QueryEngine
from repro.runtime import QualityLevel
from repro.serve import (
    MetricsRegistry,
    QueryRequest,
    QueryService,
    ShedPolicy,
)


def make_workload(positions, rng, count=40):
    """A deterministic mixed range/kNN/pt2pt request stream."""
    requests = []
    for _ in range(count):
        position = rng.choice(positions)
        roll = rng.random()
        if roll < 0.4:
            requests.append(
                QueryRequest.range_query(position, rng.choice((4.0, 9.0, 15.0)))
            )
        elif roll < 0.8:
            requests.append(QueryRequest.knn(position, k=rng.choice((1, 3, 5))))
        else:
            requests.append(QueryRequest.pt2pt(position, rng.choice(positions)))
    return requests


def naive_answers(framework, requests):
    """Fresh single-threaded QueryEngine answers, one query at a time."""
    engine = QueryEngine(
        IndexFramework.build(framework.space, list(framework.objects))
    )
    answers = []
    for request in requests:
        if request.kind.value == "range":
            answers.append(engine.range_query(request.position, request.radius))
        elif request.kind.value == "knn":
            answers.append(engine.knn(request.position, k=request.k))
        else:
            answers.append(engine.distance(request.position, request.target))
    return answers


class TestServing:
    def test_multithreaded_answers_match_sequential_engine(
        self, serve_framework, query_positions
    ):
        requests = make_workload(query_positions, random.Random(7), count=60)
        expected = naive_answers(serve_framework, requests)
        with QueryService(serve_framework, workers=4, max_batch=8) as service:
            responses = service.serve(requests)
        assert [r.value for r in responses] == expected
        assert all(r.quality is QualityLevel.EXACT_INDEXED for r in responses)

    def test_repeated_queries_hit_the_cache(
        self, serve_framework, query_positions
    ):
        request = QueryRequest.range_query(query_positions[0], 8.0)
        with QueryService(serve_framework, workers=1) as service:
            first = service.execute(request)
            second = service.execute(
                QueryRequest.range_query(query_positions[0], 8.0)
            )
        assert not first.cached and second.cached
        assert first.value == second.value
        assert service.cache.stats()["hits"] >= 1

    def test_execute_is_synchronous_and_exact(
        self, serve_framework, query_positions
    ):
        service = QueryService(serve_framework)  # never started
        response = service.execute(QueryRequest.knn(query_positions[0], k=3))
        assert response.quality is QualityLevel.EXACT_INDEXED
        assert len(response.value) == 3

    def test_concurrent_submitters(self, serve_framework, query_positions):
        requests = make_workload(query_positions, random.Random(13), count=48)
        expected = naive_answers(serve_framework, requests)
        results = [None] * len(requests)
        with QueryService(serve_framework, workers=3) as service:

            def client(indices):
                for i in indices:
                    results[i] = service.submit(requests[i]).result()

            threads = [
                threading.Thread(target=client, args=(range(i, 48, 4),))
                for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert [r.value for r in results] == expected

    def test_invalid_request_fails_alone(self, serve_framework, query_positions):
        from repro.geometry import Point

        good = QueryRequest.range_query(query_positions[0], 6.0)
        bad = QueryRequest.range_query(Point(900.0, 900.0), 6.0)
        with QueryService(serve_framework, workers=1) as service:
            good_future = service.submit(good)
            bad_future = service.submit(bad)
            assert good_future.result().value is not None
            with pytest.raises(ReproError):
                bad_future.result()


class TestTopologyMutation:
    def test_midstream_mutation_invalidates_cache_and_rebuilds(
        self, serve_framework, query_positions
    ):
        """The ISSUE's acceptance scenario: mutate the topology while the
        service is running; epoch-keyed cache entries must die and
        post-mutation answers must match a fresh single-threaded engine."""
        space = serve_framework.space
        request = QueryRequest.range_query(query_positions[0], 9.0)
        with QueryService(serve_framework, workers=2) as service:
            before = service.execute(request)
            warm = service.execute(
                QueryRequest.range_query(query_positions[0], 9.0)
            )
            assert warm.cached and warm.served_epoch == before.served_epoch

            space.remove_door(D15)  # bumps the topology epoch mid-stream

            after = service.execute(
                QueryRequest.range_query(query_positions[0], 9.0)
            )
        assert after.served_epoch == before.served_epoch + 1
        assert not after.cached  # the old entry was unusable
        assert service.cache.stats()["invalidations"] >= 1
        assert service.metrics.counter("serve.rebuilds").value == 1

        # Exactness against a from-scratch engine on the mutated space.
        scratch = QueryEngine(
            IndexFramework.build(space, list(service.engine.framework.objects))
        )
        assert after.value == scratch.range_query(query_positions[0], 9.0)

    def test_mutation_under_concurrent_load_stays_exact(
        self, serve_framework, query_positions
    ):
        space = serve_framework.space
        requests = make_workload(query_positions, random.Random(29), count=30)
        with QueryService(serve_framework, workers=3) as service:
            futures = [service.submit(r) for r in requests[:15]]
            space.remove_door(D15)
            futures += [service.submit(r) for r in requests[15:]]
            responses = [f.result() for f in futures]
        final_epoch = space.topology_epoch
        # Every response served after the mutation is exact for the new
        # topology; verify the ones stamped with the final epoch.
        scratch = QueryEngine(
            IndexFramework.build(space, list(service.engine.framework.objects))
        )
        checked = 0
        for request, response in zip(requests, responses):
            if response.served_epoch != final_epoch:
                continue
            checked += 1
            if request.kind.value == "range":
                assert response.value == scratch.range_query(
                    request.position, request.radius
                )
            elif request.kind.value == "knn":
                assert response.value == scratch.knn(request.position, k=request.k)
            else:
                assert response.value == scratch.distance(
                    request.position, request.target
                )
        assert checked >= 15  # everything submitted after the bump, at least


class TestShedding:
    def test_saturated_queue_sheds_to_euclidean(
        self, serve_framework, query_positions
    ):
        service = QueryService(
            serve_framework,
            workers=1,
            queue_capacity=1,
            shed_policy=ShedPolicy(shed_at=0.999),
        )
        # ``submit`` starts the worker, so hold the service's re-entrant
        # condition lock while both tickets queue: the worker cannot drain
        # the first before the second is admitted at occupancy 1.
        with service._cv:
            first = service.submit(QueryRequest.knn(query_positions[0], k=2))
            second = service.submit(QueryRequest.knn(query_positions[1], k=2))
        service.start()
        responses = [first.result(), second.result()]
        service.stop()
        shed = [r for r in responses if r.shed]
        assert shed
        assert all(r.quality is QualityLevel.EUCLIDEAN for r in shed)
        assert service.metrics.counter("serve.shed").value == len(shed)

    def test_degrade_band_uses_door_count(self, serve_framework, query_positions):
        policy = ShedPolicy(degrade_at=0.0, shed_at=2.0)
        assert policy.quality_cap(0.5) is QualityLevel.DOOR_COUNT
        service = QueryService(
            serve_framework, workers=1, queue_capacity=1, shed_policy=policy
        )
        ticket_future = service.submit(QueryRequest.knn(query_positions[0], k=2))
        service.start()
        response = ticket_future.result()
        service.stop()
        assert response.quality in (
            QualityLevel.DOOR_COUNT,
            QualityLevel.EXACT_INDEXED,
        )

    def test_default_policy_never_sheds_below_full(self):
        policy = ShedPolicy()
        assert policy.quality_cap(0.99) is QualityLevel.EXACT_INDEXED
        assert policy.quality_cap(1.0) is QualityLevel.EUCLIDEAN


class TestMetricsAndKnobs:
    def test_snapshot_contains_all_sections(
        self, serve_framework, query_positions
    ):
        registry = MetricsRegistry()
        with QueryService(serve_framework, metrics=registry) as service:
            service.execute(QueryRequest.knn(query_positions[0], k=1))
        snapshot = service.metrics_snapshot()
        assert snapshot["counters"]["serve.responses"] == 1
        assert "serve.latency_ms" in snapshot["latency"]
        assert "hit_rate" in snapshot["cache"]

    def test_duplicate_inflight_requests_coalesce(
        self, serve_framework, query_positions
    ):
        request = QueryRequest.range_query(query_positions[0], 7.0)
        with QueryService(serve_framework, workers=1, max_batch=16) as service:
            responses = service.serve([request, request, request])
        values = {tuple(r.value) for r in responses}
        assert len(values) == 1
        executed = service.metrics.counter("serve.cache_misses").value
        coalesced = service.metrics.counter("serve.coalesced").value
        hits = service.metrics.counter("serve.cache_hits").value
        assert executed + hits == 3 or coalesced > 0

    def test_invalid_knobs_rejected(self, serve_framework):
        with pytest.raises(ValueError):
            QueryService(serve_framework, workers=0)
        with pytest.raises(ValueError):
            QueryService(serve_framework, queue_capacity=0)
        with pytest.raises(ValueError):
            QueryService(serve_framework, max_batch=0)

    def test_accepts_engine_and_resilient_wrappers(self, serve_framework):
        engine = QueryEngine(serve_framework)
        assert QueryService(engine).engine is engine
        resilient = engine.resilient()
        assert QueryService(resilient).engine is engine
