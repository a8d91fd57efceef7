"""The campaign engine: replay a seeded workload through scripted chaos.

:class:`CampaignRunner` drives a full production stack — a
:class:`~repro.serve.lifecycle.SupervisedQueryService` over a
:class:`~repro.persist.recovery.SnapshotStore` — through a
:class:`~repro.chaos.plan.FaultPlan`, judging every served answer with the
:mod:`repro.chaos.oracles` and classifying every event into the
:class:`~repro.chaos.report.IncidentClass` taxonomy.

Every source of nondeterminism is pinned:

* the workload, the object population, and every injector's cell/byte
  choice derive from ``CampaignConfig.seed``;
* faults fire at workload *op indexes*, never wall-clock instants;
* requests run synchronously on the campaign thread (``execute``), with
  one worker, so no interleaving depends on the scheduler;
* latency is measured but excluded from the incident digest.

Two runs of the same config therefore produce byte-identical incident
sequences — the property ``repro chaos replay`` verifies.

Setting ``CampaignConfig.shards > 0`` runs the campaign against the
multi-process :class:`~repro.shard.service.ShardedQueryService` instead,
with the shard-only actions (``kill_shard`` / ``hang_shard`` /
``corrupt_shard_snapshot``).  Worker death and supervised restart are
real OS events, so *which* ops land in a degraded window depends on
scheduler timing: shard campaigns keep every safety verdict (no silent
wrong answers, recovery demanded by the final probe) but their incident
digests are **not** replay-stable, and ``repro chaos replay`` refuses
them.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Union

from repro.chaos.injectors import apply_topology_action, install_latency
from repro.chaos.oracles import (
    DifferentialOracle,
    EpochOracle,
    OracleViolation,
    euclidean_bound_violation,
    space_is_undirected,
    symmetry_violation,
    triangle_violation,
)
from repro.chaos.plan import (
    SHARD_ACTIONS,
    FaultAction,
    FaultPlan,
    flash_crowd_plan,
    shard_standard_plan,
    standard_plan,
)
from repro.chaos.report import CampaignReport, Incident, IncidentClass
from repro.exceptions import InjectedCrashError, ReproError
from repro.index.framework import IndexFramework
from repro.model.builder import IndoorSpace
from repro.model.figure1 import build_figure1
from repro.persist.recovery import SnapshotStore
from repro.runtime import crashpoints
from repro.runtime.faults import (
    FaultHandle,
    corrupt_labels,
    corrupt_md2d,
    drop_dpt_records,
    flip_snapshot_byte,
    install_flaky_distance_index,
)
from repro.overload import (
    AdaptiveConcurrencyLimiter,
    HedgePolicy,
    RetryBudget,
    overload_snapshot,
)
from repro.serve.breaker import CircuitBreaker
from repro.serve.lifecycle import SupervisedQueryService
from repro.serve.metrics import MetricsRegistry
from repro.serve.requests import QueryRequest, QueryResponse
from repro.shard.service import ShardedQueryService
from repro.synthetic.objects import generate_objects
from repro.synthetic.workload import WorkloadOp, flash_crowd_ops, query_workload

#: Buildings a campaign can run against, by config name.
BUILDINGS = {"figure1": build_figure1}

#: How many leading workload ops the end-of-campaign probe re-executes.
FINAL_PROBE_OPS = 3

#: Either serving tier a campaign can drive.
ServingTier = Union[SupervisedQueryService, ShardedQueryService]


def _percentiles(samples: List[float]) -> Dict[str, float]:
    """Nearest-rank p50/p90/p99 plus the sample count."""
    ordered = sorted(samples)

    def pick(q: float) -> float:
        rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
        return round(ordered[rank], 4)

    return {
        "count": float(len(ordered)),
        "p50": pick(0.50),
        "p90": pick(0.90),
        "p99": pick(0.99),
    }


@dataclass
class CampaignConfig:
    """Everything that determines a campaign, hence its incident digest.

    Attributes:
        seed: master seed — workload, object population, and every
            injector's random choices derive from it.
        duration_ops: workload length.
        building: key into :data:`BUILDINGS`.
        object_count: indoor objects populated before the campaign.
        plan: the fault schedule (``None`` means
            :func:`~repro.chaos.plan.standard_plan` of ``duration_ops``).
        differential: judge answers against a pristine engine.
        metamorphic: probe pt2pt answers for symmetry / triangle /
            Euclidean-bound invariants.
        epoch_oracle: enforce topology-epoch linearizability.
        integrity_gate: run the §IV invariant checks before every exact
            answer (the detection layer; disabling it is how the silent
            wrong-answer failure mode is demonstrated).
        breaker: install a serve-layer :class:`CircuitBreaker`.
        failure_threshold / cooldown_ops: breaker tuning.
        store_dir: snapshot-store directory (``None``: a fresh tempdir;
            never serialised, so replays use their own directory).
        shards: 0 runs the single-process tier; > 0 runs a
            :class:`~repro.shard.service.ShardedQueryService` with that
            many worker processes (shard campaigns are not
            replay-stable — see the module docstring).
        backend: distance backend the *served* stack is built with
            (``"matrix"`` or ``"labels"``).  The differential oracle's
            pristine engine always stays on the dense matrix, so a
            ``backend="labels"`` campaign is an end-to-end proof that the
            label index answers bit-identically to M_idx under faults.
        workload: op-stream shape — ``"mixed"`` (the uniform default) or
            ``"flash_crowd"`` (zipfian hotspots + tracking bursts; the
            default plan becomes
            :func:`~repro.chaos.plan.flash_crowd_plan`, shard casualties
            timed into the spike).
        hedging: install the overload-control stack on the sharded tier
            (hedged scatter-gather with a retry budget and a generous
            limiter).  Requires ``shards > 0`` — hedging is a
            scatter-gather concept.
    """

    seed: int = 0
    duration_ops: int = 200
    building: str = "figure1"
    object_count: int = 12
    plan: Optional[FaultPlan] = None
    differential: bool = True
    metamorphic: bool = True
    epoch_oracle: bool = True
    integrity_gate: bool = True
    breaker: bool = True
    failure_threshold: int = 2
    cooldown_ops: int = 6
    store_dir: Optional[str] = None
    shards: int = 0
    backend: str = "matrix"
    workload: str = "mixed"
    hedging: bool = False

    def __post_init__(self) -> None:
        if self.workload not in ("mixed", "flash_crowd"):
            raise ValueError(
                f"workload must be 'mixed' or 'flash_crowd', "
                f"got {self.workload!r}"
            )
        if self.hedging and self.shards <= 0:
            raise ValueError(
                "hedging requires a sharded campaign (shards > 0): hedged "
                "probes are a scatter-gather concept"
            )

    def resolved_plan(self) -> FaultPlan:
        """The plan actually run (defaults to the standard campaign of
        the selected tier)."""
        if self.plan is not None:
            return self.plan
        if self.shards > 0:
            if self.workload == "flash_crowd":
                return flash_crowd_plan(self.duration_ops, shards=self.shards)
            return shard_standard_plan(self.duration_ops, shards=self.shards)
        return standard_plan(self.duration_ops)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form, embedded in reports (``store_dir`` excluded —
        a replay must not depend on, or leak, a local path)."""
        return {
            "seed": self.seed,
            "duration_ops": self.duration_ops,
            "building": self.building,
            "object_count": self.object_count,
            "plan": self.resolved_plan().to_json_dict(),
            "differential": self.differential,
            "metamorphic": self.metamorphic,
            "epoch_oracle": self.epoch_oracle,
            "integrity_gate": self.integrity_gate,
            "breaker": self.breaker,
            "failure_threshold": self.failure_threshold,
            "cooldown_ops": self.cooldown_ops,
            "shards": self.shards,
            "backend": self.backend,
            "workload": self.workload,
            "hedging": self.hedging,
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "CampaignConfig":
        """Inverse of :meth:`to_dict` (what ``chaos replay`` rebuilds)."""
        plan = raw.get("plan")
        return cls(
            seed=int(raw["seed"]),
            duration_ops=int(raw["duration_ops"]),
            building=raw.get("building", "figure1"),
            object_count=int(raw.get("object_count", 12)),
            plan=FaultPlan.from_json_dict(plan) if plan is not None else None,
            differential=bool(raw.get("differential", True)),
            metamorphic=bool(raw.get("metamorphic", True)),
            epoch_oracle=bool(raw.get("epoch_oracle", True)),
            integrity_gate=bool(raw.get("integrity_gate", True)),
            breaker=bool(raw.get("breaker", True)),
            failure_threshold=int(raw.get("failure_threshold", 2)),
            cooldown_ops=int(raw.get("cooldown_ops", 6)),
            shards=int(raw.get("shards", 0)),
            backend=str(raw.get("backend", "matrix")),
            workload=str(raw.get("workload", "mixed")),
            hedging=bool(raw.get("hedging", False)),
        )


def _inexact_detail(response: QueryResponse) -> str:
    """Why a probe answer was not exact: its rung, plus what the serving
    tier says about it (shards that did not answer, the epochs of those
    that did, and the breaker/shed/cache routing flags)."""
    return (
        f"served at {response.quality.name} "
        f"(missing_shards={list(response.missing_shards)}, "
        f"reply_epochs={list(response.reply_epochs)}, "
        f"breaker={response.breaker}, shed={response.shed}, "
        f"cached={response.cached})"
    )


class CampaignRunner:
    """Run one deterministic chaos campaign and report on it."""

    def __init__(self, config: Optional[CampaignConfig] = None) -> None:
        self.config = config or CampaignConfig()
        self._service: Optional[ServingTier] = None
        self._breaker: Optional[CircuitBreaker] = None
        self._limiter: Optional[AdaptiveConcurrencyLimiter] = None
        self._retry_budget: Optional[RetryBudget] = None
        self._metrics = MetricsRegistry()
        self._handles: Dict[str, FaultHandle] = {}
        self._incidents: List[Incident] = []
        self._tentative: List[Incident] = []
        self._latency: Dict[str, List[float]] = {}
        self._objects: List[Any] = []

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self) -> CampaignReport:
        """Execute the campaign; returns the finalized report."""
        cfg = self.config
        if cfg.building not in BUILDINGS:
            raise ValueError(
                f"unknown building {cfg.building!r}; "
                f"expected one of {sorted(BUILDINGS)}"
            )
        plan = cfg.resolved_plan()
        space = BUILDINGS[cfg.building]()
        self._objects = [
            obj for obj, _ in generate_objects(
                space, cfg.object_count, seed=cfg.seed
            )
        ]
        if cfg.workload == "flash_crowd":
            ops = flash_crowd_ops(space, cfg.duration_ops, seed=cfg.seed)
        else:
            ops = query_workload(space, cfg.duration_ops, seed=cfg.seed)

        tempdir: Optional[tempfile.TemporaryDirectory] = None
        if cfg.store_dir is None:
            tempdir = tempfile.TemporaryDirectory(prefix="repro-chaos-")
            store_dir = tempdir.name
        else:
            store_dir = str(cfg.store_dir)
        store = SnapshotStore(store_dir)
        store.save(
            IndexFramework.build(space, self._objects, backend=cfg.backend)
        )

        if cfg.breaker and cfg.shards == 0:
            # The sharded tier brings its own per-shard breakers; the
            # single serve-layer breaker only guards the in-process tier.
            self._breaker = CircuitBreaker(
                failure_threshold=cfg.failure_threshold,
                cooldown_ops=cfg.cooldown_ops,
                metrics=self._metrics,
            )
        differential = (
            DifferentialOracle(space, self._objects)
            if cfg.differential else None
        )
        epoch = EpochOracle() if cfg.epoch_oracle else None

        executed = 0
        breaker_state: Dict[str, Any] = {}
        reconfig_state: Dict[str, Any] = {}
        try:
            self._service = self._start_service(store)
            for op in ops:
                for action in plan.actions_at(op.index):
                    self._apply_action(action, op.index, store)
                if differential is not None:
                    differential.rebind(self._live_space(), self._objects)
                self._execute_op(op, differential, epoch)
                executed += 1
            # A custom plan may pin actions past the last op; fire them so
            # e.g. a trailing restart is still exercised before the probe.
            for index in range(cfg.duration_ops, plan.last_op + 1):
                for action in plan.actions_at(index):
                    self._apply_action(action, index, store)
            self._final_probe(ops, differential)
            breaker_state = self._breaker_state()
            reconfig_state = self._reconfig_state()
        finally:
            crashpoints.disarm_all()
            if self._service is not None:
                self._service.shutdown()
            if tempdir is not None:
                tempdir.cleanup()

        report = CampaignReport(
            config=cfg.to_dict(),
            incidents=self._incidents,
            ops_executed=executed,
            latency_ms={
                quality: _percentiles(samples)
                for quality, samples in sorted(self._latency.items())
            },
            breaker=breaker_state,
            overload=(
                overload_snapshot(
                    self._metrics,
                    limiter=self._limiter,
                    budget=self._retry_budget,
                )
                if cfg.hedging else {}
            ),
            reconfig=reconfig_state,
        )
        return report.finalize()

    def _breaker_state(self) -> Dict[str, Any]:
        """The breaker snapshot(s) for the report, whichever tier ran."""
        if self._breaker is not None:
            return self._breaker.snapshot()
        if isinstance(self._service, ShardedQueryService):
            router = self._service.router
            if router is not None:
                return {
                    f"shard.{shard}": snap
                    for shard, snap in router.breaker_snapshot().items()
                }
        return {}

    def _reconfig_state(self) -> Dict[str, Any]:
        """The coordinator's end-of-campaign snapshot (sharded tier only;
        informational — never digested)."""
        if isinstance(self._service, ShardedQueryService):
            coordinator = self._service.reconfig
            if coordinator is not None:
                return coordinator.snapshot()
        return {}

    # ------------------------------------------------------------------
    # Service plumbing
    # ------------------------------------------------------------------
    def _start_service(self, store: SnapshotStore) -> ServingTier:
        cfg = self.config

        def rebuild() -> IndexFramework:
            # Last-resort rung only: every snapshot generation unloadable.
            return IndexFramework.build(
                BUILDINGS[cfg.building](), self._objects, backend=cfg.backend
            )

        if cfg.shards > 0:
            overload_opts: Dict[str, Any] = {}
            if cfg.hedging:
                # The full overload-control stack, tuned for a serial
                # campaign: hedges re-probe stragglers (the hung-shard
                # case) from a shared retry budget; the limiter's SLO is
                # generous enough that one-at-a-time ops never shed, so
                # every degradation in the report is fault-driven.
                self._limiter = AdaptiveConcurrencyLimiter(slo_ms=500.0)
                self._retry_budget = RetryBudget()
                overload_opts = {
                    "hedge_policy": HedgePolicy(),
                    "retry_budget": self._retry_budget,
                    "limiter": self._limiter,
                }
            service = ShardedQueryService(
                store=store,
                rebuild=rebuild,
                shards=cfg.shards,
                metrics=self._metrics,
                snapshot_on_shutdown=False,
                failure_threshold=cfg.failure_threshold,
                cooldown_ops=cfg.cooldown_ops,
                **overload_opts,
                # No answer cache: every op must hit the fleet so degraded
                # windows are observable, and tight supervision timings
                # keep kill → restart cycles inside the campaign's span.
                cache_capacity=0,
                shard_timeout_s=0.25,
                heartbeat_interval=0.05,
                liveness_timeout=0.4,
                restart_backoff=0.02,
                # Campaigns fork so worker restarts complete in
                # milliseconds; workers never touch supervisor-side locks
                # after the fork.  Production keeps the spawn default.
                start_method="fork",
            )
            service.start(wait=True)
            return service

        service = SupervisedQueryService(
            store,
            rebuild=rebuild,
            verify_integrity=True,
            snapshot_on_shutdown=False,  # campaign shutdowns simulate crashes
            workers=1,
            metrics=self._metrics,
            breaker=self._breaker,
            integrity_gate=cfg.integrity_gate,
        )
        service.start(wait=True)
        return service

    def _live_framework(self) -> IndexFramework:
        if isinstance(self._service, ShardedQueryService):
            return self._service.framework
        return self._service.service.engine.framework

    def _live_space(self) -> IndoorSpace:
        return self._live_framework().space

    # ------------------------------------------------------------------
    # Plan actions
    # ------------------------------------------------------------------
    def _apply_action(
        self, action: FaultAction, op_index: int, store: SnapshotStore
    ) -> None:
        params = action.params
        label = action.label or action.action
        name = action.action
        shard_mode = self.config.shards > 0
        # Topology mutations and crash-point arming are tier-agnostic: on
        # the sharded tier the WAL recorder is the ReconfigRecorder, so a
        # remove_door / add_door drives a live epoch-fenced rolling round
        # (and arm_crash may tear that round at a reconfig.* point).
        shared = ("heal", "remove_door", "add_door", "arm_crash")
        if shard_mode and name not in SHARD_ACTIONS and name not in shared:
            # In-process injectors poison the supervisor-side framework,
            # which no worker serves from — the fault would be invisible
            # and the campaign would "pass" vacuously.  Refuse loudly.
            raise ValueError(
                f"action {name!r} is not available in a sharded campaign"
            )
        if not shard_mode and name in SHARD_ACTIONS:
            raise ValueError(
                f"action {name!r} requires a sharded campaign (shards > 0)"
            )
        if name == "corrupt_md2d":
            framework = self._live_framework()
            mode = params.get("mode", "nan")
            if getattr(framework.distance_index, "kind", "matrix") == "labels":
                # Same adversary, labels-shaped: the plan's "asymmetric"
                # mode maps to the labels "skew" mode (both are the
                # finite, silently-wrong corruption of their backend).
                self._handles[label] = corrupt_labels(
                    framework,
                    mode="skew" if mode == "asymmetric" else mode,
                    count=int(params.get("count", 1)),
                    seed=int(params.get("seed", 0)),
                )
            else:
                self._handles[label] = corrupt_md2d(
                    framework,
                    mode=mode,
                    count=int(params.get("count", 1)),
                    seed=int(params.get("seed", 0)),
                )
        elif name == "drop_dpt":
            self._handles[label] = drop_dpt_records(
                self._live_framework(),
                count=int(params.get("count", 1)),
                seed=int(params.get("seed", 0)),
            )
        elif name == "flaky_index":
            self._handles[label] = install_flaky_distance_index(
                self._live_framework(),
                fail_after=int(params.get("fail_after", 0)),
            )
        elif name == "latency":
            self._handles[label] = install_latency(
                self._live_framework(), float(params["per_call_ms"])
            )
        elif name == "flip_snapshot":
            generation = store.latest()
            if generation is not None:
                self._handles[label] = flip_snapshot_byte(
                    store.path_for(generation),
                    count=int(params.get("count", 1)),
                    seed=int(params.get("seed", 0)),
                )
        elif name == "heal":
            self._heal(params.get("label", ""))
        elif name == "checkpoint":
            store.checkpoint(self._live_framework())
        elif name in ("remove_door", "add_door"):
            recorder = self._service.wal_recorder()
            try:
                apply_topology_action(recorder, name, params)
            except InjectedCrashError as exc:
                incident = Incident(
                    op_index,
                    "injected_crash",
                    IncidentClass.UNRECOVERED,
                    detail=f"crash at point {exc.point} during {name}",
                )
                self._incidents.append(incident)
                self._tentative.append(incident)
        elif name == "arm_crash":
            crashpoints.arm(params["point"], skip=int(params.get("skip", 0)))
        elif name == "restart":
            self._restart(op_index, store)
        elif name == "kill_shard":
            shard = int(params["shard"])
            cold = bool(params.get("cold", False))
            self._service.kill_shard(shard, cold=cold)
            # Tentative: the final probe decides whether the supervisor
            # actually brought the shard back (RECOVERED) or not.
            incident = Incident(
                op_index,
                "shard_killed",
                IncidentClass.RECOVERED,
                detail=f"{'cold-' if cold else ''}killed shard {shard}",
            )
            self._incidents.append(incident)
            self._tentative.append(incident)
        elif name == "hang_shard":
            shard = int(params["shard"])
            seconds = float(params.get("seconds", 1.0))
            self._service.hang_shard(shard, seconds)
            incident = Incident(
                op_index,
                "shard_hung",
                IncidentClass.RECOVERED,
                detail=f"hung shard {shard} for {seconds}s",
            )
            self._incidents.append(incident)
            self._tentative.append(incident)
        elif name == "corrupt_shard_snapshot":
            shard = int(params["shard"])
            handle = self._service.corrupt_shard_snapshot(
                shard,
                count=int(params.get("count", 1)),
                seed=int(params.get("seed", 0)),
            )
            # The handle is deliberately dropped: the shard's restart
            # ladder must quarantine the corrupt file and rebuild — the
            # campaign never un-flips the bytes for it.
            detail = (
                f"bit-rotted shard {shard}'s snapshot"
                if handle is not None
                else f"shard {shard} has no snapshot to corrupt"
            )
            self._incidents.append(Incident(
                op_index,
                "shard_snapshot_corrupted",
                IncidentClass.RECOVERED,
                detail=detail,
            ))
        else:  # unreachable: FaultAction validates against ACTIONS
            raise ValueError(f"unknown action {name!r}")

    def _heal(self, label: str) -> None:
        """Undo one labelled fault, or every active fault for ``""``."""
        labels = [label] if label else list(self._handles)
        for key in labels:
            handle = self._handles.pop(key, None)
            if handle is None:
                continue
            try:
                handle.undo()
            except Exception:
                # First undo failed; count it so a flaky heal path is
                # visible in the campaign metrics, then retry once.  A
                # second failure propagates — a fault that cannot be
                # healed must fail the campaign, not linger silently.
                self._metrics.increment("chaos.heal.retries")
                handle.undo()

    def _restart(self, op_index: int, store: SnapshotStore) -> None:
        """Kill the service without a final snapshot; recover supervised."""
        old = self._service
        self._service = None
        if old is not None:
            old.shutdown()
        # Injected faults died with the old process's framework; a fresh
        # process also starts with a quiet breaker.
        self._handles.clear()
        if self._breaker is not None:
            self._breaker.reset()
        service = self._start_service(store)
        self._service = service
        report = service.recovery_report
        if report is None:
            return
        for path in report.quarantined:
            self._incidents.append(Incident(
                op_index,
                "quarantined",
                IncidentClass.RECOVERED,
                detail=f"quarantined {path.name} during supervised restart",
            ))
        replay = report.replay
        if replay is not None and replay.dropped_tail:
            self._incidents.append(Incident(
                op_index,
                "wal_torn_tail",
                IncidentClass.RECOVERED,
                detail="dropped a torn WAL tail during replay",
            ))
        provenance = f"recovered from {report.source.value}"
        if report.generation is not None:
            provenance += f" generation {report.generation}"
        if replay is not None:
            provenance += f", replayed {replay.applied} WAL records"
        self._incidents.append(Incident(
            op_index, "restarted", IncidentClass.RECOVERED, detail=provenance
        ))

    # ------------------------------------------------------------------
    # Serving + judging
    # ------------------------------------------------------------------
    def _execute_op(
        self,
        op: WorkloadOp,
        differential: Optional[DifferentialOracle],
        epoch: Optional[EpochOracle],
    ) -> None:
        try:
            response = self._service.execute(op.to_request())
        except ReproError as exc:
            # A *detected* failure: tentative until the final probe shows
            # the service healed (RECOVERED) or not (UNRECOVERED).
            incident = Incident(
                op.index,
                "request_failed",
                IncidentClass.UNRECOVERED,
                detail=f"{op.kind} raised {type(exc).__name__}",
            )
            self._incidents.append(incident)
            self._tentative.append(incident)
            return
        self._latency.setdefault(response.quality.name, []).append(
            response.latency_ms
        )
        violation = self._judge(op, response, differential, epoch)
        if violation is not None:
            self._incidents.append(Incident(
                op.index,
                "oracle_violation",
                IncidentClass.SILENT_WRONG_ANSWER,
                quality=response.quality.name,
                detail=violation,
            ))
        elif response.breaker or response.shed or response.degraded:
            self._incidents.append(Incident(
                op.index,
                "breaker_degraded" if response.breaker else "degraded",
                IncidentClass.DEGRADED_CORRECTLY,
                quality=response.quality.name,
                detail=f"{op.kind} served at {response.quality.name}",
            ))

    def _judge(
        self,
        op: WorkloadOp,
        response: QueryResponse,
        differential: Optional[DifferentialOracle],
        epoch: Optional[EpochOracle],
    ) -> Optional[str]:
        """The oracles' verdict on one answer (``None`` when clean)."""
        try:
            if epoch is not None:
                epoch.observe(op.index, response)
            if differential is not None:
                differential.check(op, response)
        except OracleViolation as exc:
            return f"{exc.oracle}: {exc.detail}"
        if op.kind != "pt2pt":
            return None
        served = float(response.value)
        detail = euclidean_bound_violation(op, served)
        if detail is not None:
            return f"metamorphic: {detail}"
        if not (self.config.metamorphic and response.quality.is_exact):
            return None
        probes = self._probe_distances(op)
        if probes is None:
            return None
        backward, via_first, via_second = probes
        if space_is_undirected(self._live_space()):
            detail = symmetry_violation(op, served, backward)
            if detail is not None:
                return f"metamorphic: {detail}"
        detail = triangle_violation(op, served, via_first, via_second)
        if detail is not None:
            return f"metamorphic: {detail}"
        return None

    def _probe_distances(self, op: WorkloadOp):
        """The three auxiliary pt2pt answers the metamorphic checks need
        (reverse leg, and both pivot legs), or ``None`` when any probe
        fails or is served below an exact rung."""
        requests = (
            QueryRequest.pt2pt(op.target, op.position),
            QueryRequest.pt2pt(op.position, op.pivot),
            QueryRequest.pt2pt(op.pivot, op.target),
        )
        values = []
        for request in requests:
            try:
                response = self._service.execute(request)
            except ReproError:
                return None
            if not response.quality.is_exact:
                return None
            values.append(float(response.value))
        return tuple(values)

    # ------------------------------------------------------------------
    # End of campaign
    # ------------------------------------------------------------------
    def _final_probe(
        self,
        ops: List[WorkloadOp],
        differential: Optional[DifferentialOracle],
    ) -> None:
        """Heal everything, then demand exact, oracle-clean service again.

        The probe is what turns tentative detected-failure incidents into
        RECOVERED — or, if the service never comes back to verified exact
        answers, UNRECOVERED (which fails the campaign).
        """
        self._heal("")
        crashpoints.disarm_all()
        if self._breaker is not None:
            self._breaker.reset()
        failures: List[str] = []
        if isinstance(self._service, ShardedQueryService):
            # Let in-flight restarts land, then force every shard breaker
            # closed so the probe genuinely demands exact answers.
            if not self._service.await_healthy(timeout=30.0):
                failures.append("fleet never returned to READY")
            self._service.reset_breakers()
        if differential is not None:
            differential.rebind(self._live_space(), self._objects)
        for op in ops[:FINAL_PROBE_OPS]:
            try:
                response = self._service.execute(op.to_request())
            except ReproError as exc:
                failures.append(
                    f"op {op.index} raised {type(exc).__name__}"
                )
                continue
            if not response.quality.is_exact:
                failures.append(f"op {op.index} {_inexact_detail(response)}")
                continue
            if differential is not None:
                try:
                    differential.check(op, response)
                except OracleViolation as exc:
                    failures.append(f"op {op.index}: {exc.detail}")
        resolved = (
            IncidentClass.UNRECOVERED if failures else IncidentClass.RECOVERED
        )
        for incident in self._tentative:
            incident.classification = resolved
        if failures:
            self._incidents.append(Incident(
                self.config.duration_ops,
                "final_probe_failed",
                IncidentClass.UNRECOVERED,
                detail="; ".join(failures),
            ))
