"""Epoch-fenced live reconfiguration: rolling rounds, torn rounds,
planned restarts, and the fencing invariant.

Every test drives real topology mutations through the
:class:`~repro.shard.reconfig.ReconfigRecorder` against a forked
3-shard fleet over Figure 1, then demands the post-round fleet answer
bit-identically to a :class:`~repro.queries.engine.QueryEngine` built
fresh over the mutated space — the protocol's whole contract.
"""

import random

import pytest

from repro.exceptions import InjectedCrashError, ServiceUnavailableError
from repro.geometry import Point, Segment
from repro.index import IndexFramework, IndoorObject
from repro.model.figure1 import build_figure1
from repro.queries import QueryEngine
from repro.runtime import crashpoints
from repro.runtime.ladder import QualityLevel
from repro.serve.requests import QueryRequest

from tests.queries.conftest import random_point_in
from tests.shard.conftest import make_service

#: Figure 1's d24 (rooms 21-22, which stay connected through d21/d22).
DOOR = 24
DOOR_GEOMETRY = Segment(Point(16.0, 1.6, 0), Point(16.0, 2.4, 0))
DOOR_CONNECTS = (21, 22)


@pytest.fixture(autouse=True)
def _disarm():
    yield
    crashpoints.disarm_all()


@pytest.fixture
def fresh_framework():
    """Function-scoped twin of ``shard_framework_fixture``: reconfig
    rounds mutate the space *in place*, so sharing one framework across
    tests would leak epochs and missing doors between them."""
    space = build_figure1()
    rng = random.Random(1311)
    indoor_ids = [p for p in space.partition_ids if p != 0]
    objects = [
        IndoorObject(i, random_point_in(space, rng, indoor_ids))
        for i in range(48)
    ]
    return IndexFramework.build(space, objects)


def _fresh_engine(service):
    """A pristine engine over the fleet's current (mutated) space."""
    framework = service.framework
    return QueryEngine.for_space(framework.space, list(framework.objects))


def _assert_bit_identical(service, positions, *, epoch):
    engine = _fresh_engine(service)
    for index, position in enumerate(positions):
        range_resp = service.execute(QueryRequest.range_query(position, 8.0))
        assert range_resp.quality is QualityLevel.EXACT_INDEXED
        assert range_resp.served_epoch == epoch
        assert set(range_resp.reply_epochs) <= {epoch}
        assert range_resp.value == engine.range_query(position, 8.0)

        knn_resp = service.execute(QueryRequest.knn(position, k=5))
        assert knn_resp.quality is QualityLevel.EXACT_INDEXED
        assert knn_resp.value == engine.knn(position, k=5)

        target = positions[(index + 1) % len(positions)]
        pt_resp = service.execute(QueryRequest.pt2pt(position, target))
        assert pt_resp.quality is QualityLevel.EXACT_INDEXED
        assert float(pt_resp.value) == engine.distance(position, target)


class TestRollingRounds:
    def test_wal_recorder_requires_started_service(
        self, fresh_framework
    ):
        service = make_service(fresh_framework)
        with pytest.raises(ServiceUnavailableError):
            service.wal_recorder()

    def test_remove_door_rolls_fleet_to_new_epoch(
        self, fresh_framework, shard_positions
    ):
        service = make_service(fresh_framework, cache_capacity=0)
        service.start(wait=True)
        try:
            base_epoch = service.framework.space.topology_epoch
            service.wal_recorder().remove_door(DOOR)
            target = base_epoch + 1
            assert service.framework.space.topology_epoch == target

            payload = service.readiness()
            reconfig = payload["reconfig"]
            assert reconfig["committed_epoch"] == target
            assert reconfig["fence_epoch"] == target
            assert reconfig["rounds"] == 1
            assert reconfig["prepares"] == 3
            assert reconfig["commits"] == 3
            assert reconfig["prepare_failures"] == 0
            assert reconfig["commit_failures"] == 0
            assert reconfig["pending_records"] == 0
            assert set(reconfig["epoch_skew"].values()) == {0}
            for detail in payload["supervision"]["shards"].values():
                assert detail["topology_epoch"] == target

            _assert_bit_identical(service, shard_positions, epoch=target)
        finally:
            service.shutdown()

    def test_remove_then_readd_converges_and_stays_exact(
        self, fresh_framework, shard_positions
    ):
        service = make_service(fresh_framework, cache_capacity=0)
        service.start(wait=True)
        try:
            base_epoch = service.framework.space.topology_epoch
            recorder = service.wal_recorder()
            recorder.remove_door(DOOR)
            recorder.add_door(
                DOOR, DOOR_GEOMETRY, connects=DOOR_CONNECTS
            )
            target = base_epoch + 2
            assert service.framework.space.topology_epoch == target
            assert service.readiness()["reconfig"]["rounds"] == 2
            # Topologically back to the original building, two epochs on.
            _assert_bit_identical(service, shard_positions, epoch=target)
        finally:
            service.shutdown()

    def test_labels_backend_repairs_and_matches_fresh_engine(
        self, fresh_framework, shard_positions
    ):
        from repro.index import IndexFramework

        framework = IndexFramework.build(
            fresh_framework.space,
            list(fresh_framework.objects),
            backend="labels",
        )
        service = make_service(framework, cache_capacity=0)
        service.start(wait=True)
        try:
            # remove_door is the labels rebuild path; the re-add is the
            # incremental-repair path.  Both must land bit-identical.
            recorder = service.wal_recorder()
            recorder.remove_door(DOOR)
            recorder.add_door(DOOR, DOOR_GEOMETRY, connects=DOOR_CONNECTS)
            target = framework.space.topology_epoch
            assert service.framework.build_config["backend"] == "labels"
            # The re-add took the repair path, not a silent rebuild.
            assert service.framework.distance_index.patches.patch_ids == (
                DOOR,
            )
            _assert_bit_identical(service, shard_positions, epoch=target)
        finally:
            service.shutdown()

    def test_failed_mutation_aborts_cleanly(
        self, fresh_framework, shard_positions
    ):
        service = make_service(fresh_framework, cache_capacity=0)
        service.start(wait=True)
        try:
            base_epoch = service.framework.space.topology_epoch
            with pytest.raises(Exception):
                service.wal_recorder().remove_door(99999)  # no such door
            reconfig = service.readiness()["reconfig"]
            assert reconfig["aborts"] == 1
            assert reconfig["rounds"] == 0
            assert reconfig["committed_epoch"] == base_epoch
            # The abort re-enabled pruning and left serving untouched.
            _assert_bit_identical(service, shard_positions, epoch=base_epoch)
        finally:
            service.shutdown()


class TestStageFramework:
    """A worker's prepare stages through ``IndexFramework.rebuild`` on a
    private copy of its space, and its ack names the path taken."""

    @pytest.mark.parametrize(
        "backend, mutation, how",
        [
            ("labels", "add_door", "repair"),
            ("labels", "remove_door", "rebuild"),
            ("matrix", "add_door", "rebuild"),
        ],
    )
    def test_prepare_names_the_path(self, tmp_path, backend, mutation, how):
        from repro.persist.wal import TopologyWAL, WalRecorder
        from repro.shard.reconfig import stage_framework

        framework = IndexFramework.build(build_figure1(), backend=backend)
        recorder = WalRecorder(
            build_figure1(), TopologyWAL(tmp_path / "wal.log", fsync=False)
        )
        if mutation == "add_door":
            recorder.add_door(
                99, Segment(Point(4.0, 7.0), Point(4.0, 8.0)), connects=(12, 11)
            )
        else:
            recorder.remove_door(DOOR)
        staged, detail = stage_framework(
            framework, [recorder.last_record], backend
        )
        assert detail == how
        assert staged.is_fresh
        assert staged.space.topology_epoch == 1
        assert framework.space.topology_epoch == 0


class TestTornRounds:
    def test_prepare_torn_heals_on_await_healthy(
        self, fresh_framework, shard_positions
    ):
        service = make_service(fresh_framework, cache_capacity=0)
        service.start(wait=True)
        try:
            base_epoch = service.framework.space.topology_epoch
            target = base_epoch + 1
            crashpoints.arm("reconfig.prepare.torn")
            with pytest.raises(InjectedCrashError):
                service.wal_recorder().remove_door(DOOR)
            reconfig = service.readiness()["reconfig"]
            # Fence up, nothing prepared, nothing committed.
            assert reconfig["fence_epoch"] == target
            assert reconfig["committed_epoch"] == base_epoch
            assert reconfig["prepares"] == 0

            assert service.await_healthy(30.0)
            reconfig = service.readiness()["reconfig"]
            assert reconfig["committed_epoch"] == target
            assert reconfig["resumes"] == 1
            _assert_bit_identical(service, shard_positions, epoch=target)
        finally:
            service.shutdown()

    def test_commit_torn_never_mixes_epochs_then_heals(
        self, fresh_framework, shard_positions
    ):
        service = make_service(fresh_framework, cache_capacity=0)
        service.start(wait=True)
        try:
            base_epoch = service.framework.space.topology_epoch
            target = base_epoch + 1
            crashpoints.arm("reconfig.commit.torn")
            with pytest.raises(InjectedCrashError):
                service.wal_recorder().remove_door(DOOR)
            reconfig = service.readiness()["reconfig"]
            assert reconfig["fence_epoch"] == target
            assert reconfig["committed_epoch"] == base_epoch
            assert reconfig["commits"] == 1  # exactly one flipped

            # Mid-tear the fleet straddles two epochs; every merge must
            # still be single-epoch, and nothing may serve exact below
            # the fence.
            for position in shard_positions:
                response = service.execute(
                    QueryRequest.range_query(position, 8.0)
                )
                assert len(set(response.reply_epochs)) <= 1
                assert response.served_epoch >= target
                if response.quality is QualityLevel.EXACT_INDEXED:
                    assert set(response.reply_epochs) == {target}

            assert service.await_healthy(30.0)
            reconfig = service.readiness()["reconfig"]
            assert reconfig["committed_epoch"] == target
            assert reconfig["resumes"] == 1
            _assert_bit_identical(service, shard_positions, epoch=target)
        finally:
            service.shutdown()

    def test_worker_killed_between_prepare_and_commit_rejoins(
        self, fresh_framework, shard_positions
    ):
        service = make_service(fresh_framework, cache_capacity=0)
        service.start(wait=True)
        try:
            base_epoch = service.framework.space.topology_epoch
            target = base_epoch + 1
            crashpoints.arm("reconfig.kill_after_prepare")
            service.wal_recorder().remove_door(DOOR)
            reconfig = service.readiness()["reconfig"]
            assert reconfig["committed_epoch"] == target
            # The killed worker either missed its commit or respawned in
            # time; both leave the round committed and the fleet healing.
            assert service.await_healthy(30.0)
            for detail in (
                service.readiness()["supervision"]["shards"].values()
            ):
                assert detail["topology_epoch"] == target
            _assert_bit_identical(service, shard_positions, epoch=target)
        finally:
            service.shutdown()


class TestEpochMismatchRestart:
    def test_stale_rejoin_is_a_planned_restart_onto_rebuild_rung(
        self, fresh_framework, shard_positions
    ):
        """Regression: a worker rejoining at a stale epoch must be
        restarted as a *planned* transition (no fault-budget burn) and
        come back at the spec's epoch via the rebuild rung."""
        import dataclasses
        import time

        import repro.shard.supervisor as supervisor_mod
        from repro.shard.worker import shard_worker_main as real_main

        # restart_budget=2 so an unplanned classification of the repeated
        # stale rejoins would exhaust the budget and fail await_healthy.
        service = make_service(
            fresh_framework, cache_capacity=0, restart_budget=2
        )
        service.start(wait=True)
        try:
            service.wal_recorder().remove_door(DOOR)
            target = service.framework.space.topology_epoch

            def stale_main(spec, conn):
                # Shard 0 comes up numbering itself one epoch behind the
                # spec it was handed — the stale private state a worker
                # crashed mid-round might rejoin from.  Runs in the
                # forked child, so the parent-side patch below reaches it.
                if spec.shard_id == 0:
                    spec = dataclasses.replace(
                        spec,
                        topology_epoch=spec.topology_epoch - 1,
                        built_epoch=spec.built_epoch - 1,
                    )
                real_main(spec, conn)

            supervisor_mod.shard_worker_main = stale_main
            try:
                service.kill_shard(0, cold=True)
                deadline = time.monotonic() + 30.0
                seen = False
                while time.monotonic() < deadline and not seen:
                    events = service.readiness()["supervision"]["events"]
                    seen = any(
                        event["event"] == "epoch_mismatch"
                        for event in events
                    )
                    time.sleep(0.05)
                assert seen, "supervisor never recorded the epoch_mismatch"
            finally:
                # Heal: the next respawn materialises honestly.
                supervisor_mod.shard_worker_main = real_main

            assert service.await_healthy(30.0)
            shards = service.readiness()["supervision"]["shards"]
            assert shards["0"]["state"] == "ready"
            assert shards["0"]["topology_epoch"] == target
            assert (
                service.readiness()["reconfig"]["planned_restarts"] >= 1
            )
            _assert_bit_identical(service, shard_positions, epoch=target)
        finally:
            service.shutdown()


class TestStoreRecovery:
    def test_recovery_replays_reconfig_mutation_from_wal(
        self, fresh_framework, shard_positions, tmp_path
    ):
        """A mutation rolled through the fleet is durable: a brand-new
        service recovered from the same store starts at the mutated
        epoch (the supervisor-side WAL append happened before any
        worker saw the delta)."""
        from repro.persist.recovery import SnapshotStore

        store = SnapshotStore(tmp_path / "store")
        store.save(fresh_framework)
        base_epoch = fresh_framework.space.topology_epoch
        service = make_service(
            None, store=store, cache_capacity=0,
            snapshot_on_shutdown=False,
        )
        service.start(wait=True)
        try:
            service.wal_recorder().remove_door(DOOR)
            assert (
                service.framework.space.topology_epoch == base_epoch + 1
            )
        finally:
            service.shutdown()

        recovered = make_service(
            None, store=store, cache_capacity=0,
            snapshot_on_shutdown=False,
        )
        recovered.start(wait=True)
        try:
            space = recovered.framework.space
            assert space.topology_epoch == base_epoch + 1
            assert DOOR not in space.door_ids
            _assert_bit_identical(
                recovered, shard_positions, epoch=base_epoch + 1
            )
        finally:
            recovered.shutdown()
