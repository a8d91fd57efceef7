"""Epoch-fenced live topology reconfiguration for the sharded tier.

The single-process tier mutates its space through a
:class:`~repro.persist.wal.WalRecorder` and rebuilds in place; the sharded
tier cannot — its indexes live in worker processes that must keep serving
while the building changes.  This module is the supervisor-side control
plane that rolls a topology mutation across the fleet with zero downtime:

1. **Record.**  The mutation is WAL-appended and applied to the
   supervisor-side space (the same crash contract as the single-process
   tier: the record is durable before the memory mutates, so crash
   recovery replays it).
2. **Retarget + fence.**  Every shard slot's spec is swapped to the new
   epoch and the supervisor's *fence epoch* rises — the round's point of
   no return.  From here every restart (planned or crash) rejoins at the
   new epoch, and the router refuses to merge exact replies from below
   the fence: a query racing the round degrades to its Euclidean gap
   fill; it never mixes epochs and never serves a stale exact answer.
3. **Prepare.**  Each worker receives the WAL delta over its pipe and
   stages the next epoch's index on a *private copy* of its space
   (:func:`stage_framework`, which hands the delta to
   :meth:`IndexFramework.rebuild`: labels shards take the WAL-driven
   incremental repair of :mod:`repro.labels.repair` when the records
   allow it, matrix shards rebuild) while still answering queries at
   the old epoch.
4. **Commit.**  After every reachable worker acks its prepare, commits
   roll shard by shard; each ack atomically flips that worker's served
   epoch.  A worker that cannot prepare (or died in between) falls to
   the rebuild rung: a *planned* restart re-materialises it from the
   already-retargeted spec, rejoining at the new epoch without burning
   the supervisor's fault budget.

Both phases are idempotent on the worker side (``prepare``/``commit``
for an epoch at or below the served one ack success), so a torn round —
the coordinator dying between any two steps — is healed by
:meth:`ReconfigCoordinator.resume`, which simply re-runs the round.
Even with no resume, the supervisor's monitor notices workers whose
served epoch lags their (retargeted) spec beyond a grace period and
planned-restarts them: the fleet converges to the fence epoch no matter
where the round tore.

Chaos crash points (:mod:`repro.runtime.crashpoints`):

* ``reconfig.prepare.torn`` — die after the WAL record and the retarget,
  before any worker stages (the fence is up, nothing is staged);
* ``reconfig.commit.torn`` — die after the first commit ack (the fleet
  straddles two epochs; fencing keeps every merge single-epoch);
* ``reconfig.kill_after_prepare`` — SIGKILL a worker between its prepare
  ack and its commit (its respawn rejoins at the new epoch from the
  retargeted spec).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.index.framework import IndexFramework
from repro.io.json_io import space_from_dict, space_to_dict
from repro.persist.wal import TopologyWAL, WalRecord, WalRecorder, replay_records
from repro.runtime import crashpoints
from repro.serve.metrics import MetricsRegistry
from repro.shard.router import ScatterGatherRouter
from repro.shard.spec import respec_for_epoch
from repro.shard.supervisor import ShardSupervisor

#: Counters the tier's readiness payload surfaces (see
#: :meth:`ReconfigCoordinator.snapshot`).
RECONFIG_COUNTERS = (
    "reconfig.rounds",
    "reconfig.prepares",
    "reconfig.prepare_failures",
    "reconfig.commits",
    "reconfig.commit_failures",
    "reconfig.aborts",
    "reconfig.resumes",
    "reconfig.planned_restarts",
    "reconfig.fenced_replies",
    "reconfig.retried_replies",
    "reconfig.replans",
)


def stage_framework(
    framework: IndexFramework,
    records: Sequence[WalRecord],
    backend: str,
) -> Tuple[IndexFramework, str]:
    """Stage the next epoch's framework for a worker's ``prepare``.

    The delta replays on a **private copy** of the space (the dict
    round-trip is float-exact), so the serving framework — and every
    query interleaved with the staging — is untouched until ``commit``
    swaps the whole framework atomically.  Returns ``(staged, how)``,
    where ``how`` names the path :meth:`IndexFramework.rebuild` took:
    ``"repair"`` when the staged index still shares the serving one's
    labels, ``"rebuild"`` otherwise.
    """
    staged_space = space_from_dict(space_to_dict(framework.space))
    staged_space.restore_topology_epoch(framework.space.topology_epoch)
    replay_records(staged_space, list(records))
    shim = IndexFramework(
        staged_space,
        framework.distance_index,
        framework.dpt,
        framework.rtree,
        framework.objects,
    )
    # The shim is honestly stale: old indexes over the mutated copy, with
    # the old built epoch — exactly what the repair path expects.
    shim.built_epoch = framework.built_epoch
    shim.build_config = dict(framework.build_config)
    shim.build_config["backend"] = backend
    staged = shim.rebuild(records)
    shared = getattr(framework.distance_index, "labeling", None)
    repaired = shared is not None and shared is getattr(
        staged.distance_index, "labeling", None
    )
    return staged, "repair" if repaired else "rebuild"


class ReconfigCoordinator:
    """Supervisor-side driver of epoch-fenced rolling reconfiguration.

    One coordinator per :class:`~repro.shard.service.ShardedQueryService`;
    every topology mutation funnels through :meth:`mutate` (usually via
    the :class:`ReconfigRecorder` facade), which runs the full
    record → retarget → prepare → commit round under one lock, so rounds
    serialize and the fleet is never asked to straddle three epochs.

    Args:
        supervisor: the worker fleet.
        router: the scatter-gather router (pruning pauses during rounds).
        framework: the supervisor-side full framework; its space is the
            one the WAL recorder mutates.
        wal: the durable topology WAL (shared with crash recovery).
        shard_ids: every shard in the placement.
        metrics: shared registry (``reconfig.*`` counters).
        ack_timeout_s: per-worker prepare/commit ack budget.
        on_adopt: called with the new full framework after each committed
            round (the service swaps its published reference there).
    """

    def __init__(
        self,
        supervisor: ShardSupervisor,
        router: ScatterGatherRouter,
        framework: IndexFramework,
        wal: TopologyWAL,
        shard_ids: Sequence[int],
        *,
        metrics: Optional[MetricsRegistry] = None,
        ack_timeout_s: float = 30.0,
        on_adopt: Optional[Callable[[IndexFramework], None]] = None,
    ) -> None:
        self.supervisor = supervisor
        self.router = router
        self.wal = wal
        self.metrics = metrics or MetricsRegistry()
        self.ack_timeout_s = ack_timeout_s
        self._on_adopt = on_adopt
        self._shard_ids = list(shard_ids)
        # Two locks with one global order (round -> state -> everything
        # the supervisor/router own).  ``_round_lock`` serialises whole
        # mutation rounds and is deliberately held across the blocking
        # per-worker prepare/commit acks; it guards nothing the query
        # path reads.  ``_lock`` is the short-critical-section guard for
        # the reference state below (framework, recorder, pending,
        # staged) so readiness probes and chaos injectors never wedge
        # behind a slow worker's ack.
        self._round_lock = threading.RLock()
        self._lock = threading.Lock()
        self._framework = framework
        self._recorder = WalRecorder(framework.space, wal)
        #: Records of every round not yet committed fleet-wide.  Workers
        #: replay idempotently (records at or below their epoch are
        #: skipped), so re-delivering the whole list is always safe.
        self._pending: List[WalRecord] = []
        self._staged_fw: Optional[IndexFramework] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def space(self):
        """The supervisor-side space (chaos injectors read door ids)."""
        with self._lock:
            return self._framework.space

    @property
    def framework(self) -> IndexFramework:
        """The current full framework (post-round: the adopted one)."""
        with self._lock:
            return self._framework

    def snapshot(self) -> Dict[str, Any]:
        """The ``reconfig`` block of the tier's readiness payload."""
        with self._lock:
            pending = len(self._pending)
        payload: Dict[str, Any] = {
            "committed_epoch": self.supervisor.committed_epoch,
            "fence_epoch": self.supervisor.fence_epoch,
            "pending_records": pending,
            "epoch_skew": {
                shard: info["epoch_skew"]
                for shard, info in
                self.supervisor.readiness()["shards"].items()
            },
        }
        for name in RECONFIG_COUNTERS:
            payload[name.split(".", 1)[1]] = self.metrics.counter(name).value
        return payload

    # ------------------------------------------------------------------
    # Mutation rounds
    # ------------------------------------------------------------------
    def mutate(self, fn: Callable[[WalRecorder], Any]) -> Any:
        """Run one topology mutation as a full epoch-fenced round.

        ``fn`` receives the WAL recorder and performs exactly one
        mutation.  If the WAL append or the in-memory apply fails, the
        round aborts cleanly (the recorder already rolled the record
        back; nothing was retargeted).  Once the record is durable the
        round is past its point of no return: any later failure —
        including an injected crash — leaves a torn round that
        :meth:`resume` (or the supervisor's epoch-lag monitor) heals.
        """
        # The round lock is held across the blocking worker acks on
        # purpose: it serialises rounds, and nothing the query path or
        # the readiness probe reads is guarded by it (that state lives
        # under self._lock), so a slow worker stalls only other
        # mutations.
        with self._round_lock:
            return self._mutate_round(fn)  # repro: noqa REP007

    def _mutate_round(self, fn: Callable[[WalRecorder], Any]) -> Any:
        """One full round; caller holds ``self._round_lock``."""
        self._resume_round()  # heal any torn round before a new one
        # Pruning bounds mix the distance index with door geometry,
        # so they must freeze *before* the space mutates under them.
        self.router.begin_reconfig()
        with self._lock:
            recorder = self._recorder
        try:
            result = fn(recorder)
        except BaseException:
            self.metrics.increment("reconfig.aborts")
            self.router.abort_reconfig()
            raise
        record = recorder.last_record
        assert record is not None
        with self._lock:
            self._pending.append(record)
            pending = list(self._pending)
            framework = self._framework
        target = framework.space.topology_epoch
        # Reindex the full framework and retarget every slot BEFORE
        # any prepare: from this instant every restart rejoins at
        # ``target`` and the router fences below it — no exact
        # old-epoch answer can be merged even if we die right here.
        staged = framework.rebuild(pending)
        with self._lock:
            self._staged_fw = staged
        self.supervisor.retarget(
            {
                shard_id: respec_for_epoch(
                    self.supervisor.spec_of(shard_id), staged
                )
                for shard_id in self._shard_ids
            },
            target,
        )
        crashpoints.fire("reconfig.prepare.torn")
        self._run_round(target)
        self._finish_round(target)
        return result

    def resume(self) -> bool:
        """Complete a torn round, if any; returns whether one was healed.

        Safe to call any time (``await_healthy`` does): when the fence
        and committed epochs agree there is nothing to do.
        """
        # Held across worker acks by design — see mutate().
        with self._round_lock:
            return self._resume_round()  # repro: noqa REP007

    def _resume_round(self) -> bool:
        """Heal a torn round; caller holds ``self._round_lock``."""
        target = self.supervisor.fence_epoch
        if self.supervisor.committed_epoch >= target:
            return False
        self.metrics.increment("reconfig.resumes")
        with self._lock:
            staged = self._staged_fw
            framework = self._framework
            pending = list(self._pending)
        if staged is None or staged.space.topology_epoch != target:
            # The staged framework was lost with the torn round; the live
            # space already carries the mutation (it applied before the
            # fence rose), so rebuilding it lands at the target.
            staged = framework.rebuild(pending)
            with self._lock:
                self._staged_fw = staged
        self._run_round(target)
        self._finish_round(target)
        return True

    def _run_round(self, target: int) -> None:
        """Prepare then commit every shard; failures fall to the rebuild
        rung (a planned restart from the already-retargeted spec).
        Caller holds ``self._round_lock`` only — the ack waits must not
        block state readers."""
        with self._lock:
            records = [record.to_dict() for record in self._pending]
        self.metrics.increment("reconfig.rounds")
        prepared: List[int] = []
        for shard_id in self._shard_ids:
            self.metrics.increment("reconfig.prepares")
            ok, detail = self.supervisor.prepare_shard(
                shard_id, target, records, self.ack_timeout_s
            )
            if not ok:
                self.metrics.increment("reconfig.prepare_failures")
                # Rebuild rung: restart onto the retargeted spec — the
                # worker rejoins at ``target`` without a delta to apply.
                self.supervisor.planned_restart(shard_id)
                continue
            prepared.append(shard_id)
            if crashpoints.consume("reconfig.kill_after_prepare"):
                # Chaos: this worker dies in the window between its
                # prepare ack and its commit.  Its respawn (from the
                # retargeted spec) rejoins at the new epoch.
                self.supervisor.kill_shard(shard_id)
        for shard_id in prepared:
            self.metrics.increment("reconfig.commits")
            ok, detail = self.supervisor.commit_shard(
                shard_id, target, self.ack_timeout_s
            )
            if ok:
                crashpoints.fire("reconfig.commit.torn")
            else:
                self.metrics.increment("reconfig.commit_failures")
                self.supervisor.planned_restart(shard_id)

    def _finish_round(self, target: int) -> None:
        """Publish the round: every shard either flipped or is restarting
        onto the new spec, so the epoch is committed fleet-wide.
        Caller holds ``self._round_lock``."""
        self.supervisor.mark_committed(target)
        with self._lock:
            new_fw = self._staged_fw
            assert new_fw is not None
            self._framework = new_fw
            self._recorder = WalRecorder(new_fw.space, self.wal)
            self._pending.clear()
            self._staged_fw = None
        self.router.finish_reconfig(new_fw)
        if self._on_adopt is not None:
            self._on_adopt(new_fw)


class ReconfigRecorder:
    """The sharded tier's drop-in for :class:`WalRecorder`.

    Same mutation surface — ``add_partition`` / ``add_door`` /
    ``remove_door`` — but each call runs one complete epoch-fenced
    rolling round across the fleet (chaos campaigns drive topology
    actions through this without knowing which tier is serving).
    """

    def __init__(self, coordinator: ReconfigCoordinator) -> None:
        self._coordinator = coordinator

    @property
    def space(self):
        """The supervisor-side space (post-mutation epochs read here)."""
        return self._coordinator.space

    def add_partition(self, *args, **kwargs):
        """Record, then roll a new partition across the fleet."""
        return self._coordinator.mutate(
            lambda recorder: recorder.add_partition(*args, **kwargs)
        )

    def add_door(self, *args, **kwargs):
        """Record, then roll a new door across the fleet."""
        return self._coordinator.mutate(
            lambda recorder: recorder.add_door(*args, **kwargs)
        )

    def remove_door(self, *args, **kwargs):
        """Record, then roll a door removal across the fleet."""
        return self._coordinator.mutate(
            lambda recorder: recorder.remove_door(*args, **kwargs)
        )
