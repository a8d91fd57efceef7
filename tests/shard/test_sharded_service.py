"""ShardedQueryService end-to-end: bit-identical answers while healthy,
explicit degradation under partial failure, and supervised restart that
rejoins the original topology epoch."""

import time

import pytest

from repro.queries import QueryEngine
from repro.runtime.ladder import QualityLevel, euclidean_lower_bound
from repro.serve.requests import QueryRequest
from repro.serve.service import ServiceState

from tests.shard.conftest import make_service


def _requests(positions):
    out = []
    for index, position in enumerate(positions):
        out.append(QueryRequest.range_query(position, 8.0))
        out.append(QueryRequest.knn(position, k=5))
        out.append(
            QueryRequest.pt2pt(position, positions[(index + 1) % len(positions)])
        )
    return out


def _engine_answer(engine, request):
    from repro.serve.requests import QueryKind

    if request.kind is QueryKind.RANGE:
        return engine.range_query(request.position, request.radius)
    if request.kind is QueryKind.KNN:
        return engine.knn(request.position, k=request.k)
    return engine.distance(request.position, request.target)


class TestHealthyFleet:
    def test_lifecycle_and_readiness(self, sharded_service):
        assert sharded_service.state is ServiceState.READY
        payload = sharded_service.readiness()
        assert payload["ready"] is True
        assert payload["shards"] == 3
        details = payload["supervision"]["shards"]
        assert sorted(details) == ["0", "1", "2"]
        for detail in details.values():
            assert detail["state"] == "ready"
            assert detail["topology_epoch"] == (
                sharded_service.framework.space.topology_epoch
            )

    def test_answers_bit_identical_to_engine(
        self, sharded_service, shard_framework_fixture, shard_positions
    ):
        # Cross-shard range, kNN (including its (distance, id) tie-break),
        # and pt2pt must all reproduce the sequential engine exactly.
        engine = QueryEngine(shard_framework_fixture)
        requests = _requests(shard_positions)
        responses = sharded_service.serve(requests)
        for request, response in zip(requests, responses):
            assert response.quality is QualityLevel.EXACT_INDEXED
            assert response.missing_shards == ()
            assert response.value == _engine_answer(engine, request)

    def test_distance_aware_pruning_fires_without_changing_answers(
        self, sharded_service, shard_positions
    ):
        # The bit-identity test above already pinned the answers; here we
        # check the router actually skipped provably irrelevant shards.
        for position in shard_positions:
            sharded_service.execute(QueryRequest.range_query(position, 1.0))
        snapshot = sharded_service.metrics_snapshot()
        assert snapshot["counters"].get("serve.shards_pruned", 0) > 0

    def test_rejects_requests_before_start_and_after_shutdown(
        self, shard_framework_fixture
    ):
        from repro.exceptions import ServiceUnavailableError

        service = make_service(shard_framework_fixture)
        request = QueryRequest.knn(
            shard_framework_fixture.objects.get(0).position, k=1
        )
        with pytest.raises(ServiceUnavailableError):
            service.execute(request)
        service.start(wait=True)
        try:
            assert service.execute(request).value
        finally:
            service.shutdown()
        with pytest.raises(ServiceUnavailableError):
            service.execute(request)


class TestPartialFailure:
    @pytest.fixture
    def fresh_service(self, shard_framework_fixture):
        service = make_service(
            shard_framework_fixture,
            cache_capacity=0,  # every query must hit the fleet
            shard_timeout_s=0.25,
            restart_backoff=0.3,  # hold the corpse down long enough to observe
        )
        service.start(wait=True)
        yield service
        service.shutdown()

    def test_killed_shard_degrades_instead_of_failing(
        self, fresh_service, shard_framework_fixture, shard_positions
    ):
        victim = 1
        owned = {
            oid
            for oid, _ in fresh_service.router._objects[victim]
        }
        assert owned, "the victim shard must own objects for this test"
        fresh_service.kill_shard(victim)
        # Race the restart: within the backoff window the scatter must
        # degrade, never raise and never silently drop the victim's slice.
        degraded = None
        deadline = time.monotonic() + 5.0
        while degraded is None and time.monotonic() < deadline:
            response = fresh_service.execute(
                QueryRequest.range_query(shard_positions[0], 50.0)
            )
            if response.missing_shards:
                degraded = response
        assert degraded is not None, "never observed a degraded window"
        assert degraded.quality is QualityLevel.EUCLIDEAN
        assert victim in degraded.missing_shards
        # Euclidean gap fill is a superset of the victim's true slice:
        # every owned object within the radius (lower bound <= true walk).
        filled = set(degraded.value) & owned
        for oid, position in fresh_service.router._objects[victim]:
            if (
                euclidean_lower_bound(shard_positions[0], position)
                <= 50.0
            ):
                assert oid in filled

    def test_restart_rejoins_the_original_epoch_and_heals(
        self, fresh_service, shard_framework_fixture, shard_positions
    ):
        victim = 2
        epoch = shard_framework_fixture.space.topology_epoch
        fresh_service.kill_shard(victim)
        # kill is asynchronous: wait until the monitor buried the corpse
        # AND its replacement reported ready again.
        deadline = time.monotonic() + 15.0
        detail = {}
        while time.monotonic() < deadline:
            detail = fresh_service.readiness()["supervision"]["shards"][
                str(victim)
            ]
            if detail["restarts"] >= 1 and detail["state"] == "ready":
                break
            time.sleep(0.05)
        assert detail.get("state") == "ready"
        assert detail.get("restarts", 0) >= 1
        assert detail.get("topology_epoch") == epoch
        # After the heal (+ breaker reset) answers are exact again.
        fresh_service.reset_breakers()
        engine = QueryEngine(shard_framework_fixture)
        request = QueryRequest.knn(shard_positions[1], k=7)
        response = fresh_service.execute(request)
        assert response.quality is QualityLevel.EXACT_INDEXED
        assert response.value == _engine_answer(engine, request)
        assert response.served_epoch == epoch

    def test_pt2pt_hedges_to_a_surviving_shard(
        self, fresh_service, shard_framework_fixture, shard_positions
    ):
        # pt2pt needs any one healthy shard: kill one and the answer must
        # still come back exact from a survivor.
        engine = QueryEngine(shard_framework_fixture)
        request = QueryRequest.pt2pt(shard_positions[0], shard_positions[3])
        fresh_service.kill_shard(0)
        response = fresh_service.execute(request)
        assert response.quality is QualityLevel.EXACT_INDEXED
        assert response.value == pytest.approx(
            _engine_answer(engine, request)
        )


def test_await_healthy_waits_out_a_dead_ready_worker(
    shard_framework_fixture, shard_positions
):
    """A worker killed a moment ago still reads READY until the monitor's
    next pass; ``await_healthy`` must wait for its replacement instead of
    handing the fleet back with a corpse in it."""
    service = make_service(
        shard_framework_fixture,
        shards=2,
        cache_capacity=0,
        heartbeat_interval=1.0,  # a wide window before the monitor looks
        liveness_timeout=10.0,
    )
    service.start(wait=True)
    try:
        supervisor = service._supervisor
        with supervisor._lock:
            corpse = supervisor._slots[0].incarnation
        service.kill_shard(0)
        deadline = time.monotonic() + 5.0
        while not corpse.dead and time.monotonic() < deadline:
            time.sleep(0.005)
        assert corpse.dead
        assert service.await_healthy(30.0)
        shard = service.readiness()["supervision"]["shards"]["0"]
        assert shard["state"] == "ready"
        assert shard["restarts"] == 1
        assert shard["pid"] != corpse.process.pid
        service.reset_breakers()
        response = service.execute(
            QueryRequest.range_query(shard_positions[0], 50.0)
        )
        assert response.missing_shards == ()
        assert response.quality is QualityLevel.EXACT_INDEXED
    finally:
        service.shutdown()
