"""Rolling-reconfiguration benchmark: ``python -m repro reconfig-bench``.

Answers the question the epoch-fenced reconfiguration protocol
(:mod:`repro.shard.reconfig`) exists for: *what does a topology change
cost the query stream?*  A continuous mixed workload hammers a
:class:`~repro.shard.service.ShardedQueryService` from a pump thread
while the main thread drives a sequence of door mutations through two
strategies:

* **rolling** — each mutation runs as one epoch-fenced round through the
  :class:`~repro.shard.reconfig.ReconfigRecorder`: workers stage the next
  epoch on private copies while still serving, then commits flip them one
  by one.  The fleet never stops; only queries racing a round may degrade
  to their Euclidean gap fill.
* **stop_world** — the classic alternative: shut the fleet down, rebuild
  the framework at the new topology, start a fresh fleet.  Every query
  issued during the window is an error (counted ``unavailable``).

Every answered query is judged by a per-epoch differential oracle — a
pristine :class:`~repro.queries.engine.QueryEngine` built fresh at the
epoch the response claims (:attr:`~repro.serve.requests.QueryResponse.
served_epoch`), reusing the chaos rung-guarantee checks — so
``mismatches`` counts answers that are not bit-identical to a freshly
built index at their own epoch.  ``epoch_mix_violations`` counts merges
whose shard replies straddle two epochs; the fencing invariant says both
must be **zero**.  The headline ratio is ``rolling.availability``
(fraction of attempts answered at full exact quality *while the topology
was changing underneath*).

Its subcommand, scales, gated ratios and hard checks are one record in
:mod:`repro.bench.table`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.chaos.oracles import DifferentialOracle, OracleViolation
from repro.geometry import Point, Segment
from repro.index.framework import IndexFramework
from repro.io.json_io import space_from_dict, space_to_dict
from repro.model.builder import IndoorSpace
from repro.model.figure1 import build_figure1
from repro.persist.wal import TopologyWAL, WalRecorder
from repro.runtime.ladder import QualityLevel
from repro.serve.requests import QueryResponse
from repro.shard.service import ShardedQueryService
from repro.synthetic.objects import generate_objects
from repro.synthetic.workload import WorkloadOp, query_workload


@dataclass(frozen=True)
class ReconfigScale:
    """Workload shape for one reconfiguration-benchmark scale.

    Attributes:
        name: scale label echoed into the result.
        shards: worker processes in the fleet.
        objects: indoor objects populating the store.
        rounds: topology mutation rounds per strategy (the benchmark
            alternates removing and re-adding Figure 1's d24, so every
            round changes the topology epoch by exactly one).
        workload_ops: distinct ops in the pump's cyclic stream.
        pump_pause_ms: pause between pumped queries (keeps the pump from
            monopolising the campaign thread's GIL slice).
        settle_s: quiet time after the last round so the tail of the
            stream measures the healed fleet.
    """

    name: str
    shards: int
    objects: int
    rounds: int
    workload_ops: int
    pump_pause_ms: float
    settle_s: float


RECONFIG_QUICK = ReconfigScale(
    name="quick",
    shards=3,
    objects=12,
    rounds=4,
    workload_ops=40,
    pump_pause_ms=2.0,
    settle_s=0.5,
)

RECONFIG_PAPER = ReconfigScale(
    name="paper",
    shards=3,
    objects=24,
    rounds=8,
    workload_ops=80,
    pump_pause_ms=1.0,
    settle_s=1.0,
)


#: The door every round toggles: Figure 1's d24 (rooms 21-22 stay
#: connected through d21/d22, so the oracle keeps finite exact answers).
_DOOR_ID = 24
_DOOR_GEOMETRY = Segment(Point(16.0, 1.6, 0), Point(16.0, 2.4, 0))
_DOOR_CONNECTS = (21, 22)


def _apply_round(recorder, round_index: int) -> None:
    """Round ``i`` removes d24 when even, re-adds it when odd."""
    if round_index % 2 == 0:
        recorder.remove_door(_DOOR_ID)
    else:
        recorder.add_door(_DOOR_ID, _DOOR_GEOMETRY, connects=_DOOR_CONNECTS)


def _epoch_spaces(base: IndoorSpace, rounds: int, wal_dir) -> List[IndoorSpace]:
    """A pristine space at every epoch ``0..rounds`` the run will visit,
    produced by replaying the same mutation sequence on private copies."""
    spaces = [base]
    current = space_from_dict(space_to_dict(base))
    current.restore_topology_epoch(base.topology_epoch)
    recorder = WalRecorder(current, TopologyWAL(wal_dir / "pristine-wal.log"))
    for index in range(rounds):
        _apply_round(recorder, index)
        frozen = space_from_dict(space_to_dict(current))
        frozen.restore_topology_epoch(current.topology_epoch)
        spaces.append(frozen)
    return spaces


@dataclass
class _Sample:
    """One pumped query's outcome."""

    op: WorkloadOp
    response: Optional[QueryResponse]  # None: the attempt errored
    latency_ms: float


class _QueryPump:
    """A thread cycling the workload against whatever service is live."""

    def __init__(self, ops: List[WorkloadOp], pause_ms: float) -> None:
        self._ops = ops
        self._pause_s = pause_ms / 1000.0
        self._stop = threading.Event()
        self.service: Optional[ShardedQueryService] = None
        self.samples: List[_Sample] = []
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        index = 0
        while not self._stop.is_set():
            op = self._ops[index % len(self._ops)]
            index += 1
            service = self.service
            start = time.perf_counter()
            try:
                if service is None:
                    raise RuntimeError("fleet is down")
                response = service.execute(op.to_request())
            except Exception:
                # Stop-the-world windows: the attempt itself is the datum.
                self.samples.append(_Sample(
                    op, None, (time.perf_counter() - start) * 1000.0
                ))
            else:
                self.samples.append(_Sample(
                    op, response, (time.perf_counter() - start) * 1000.0
                ))
            if self._pause_s:
                time.sleep(self._pause_s)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=30.0)


def _percentile(samples: List[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered)) - 1))
    return round(ordered[rank], 4)


def _summarise(
    samples: List[_Sample],
    oracles: Dict[int, DifferentialOracle],
    round_wall_s: List[float],
) -> Dict[str, Any]:
    """Availability / latency / correctness summary of one strategy."""
    answered = [s for s in samples if s.response is not None]
    exact = [
        s for s in answered
        if s.response.quality is QualityLevel.EXACT_INDEXED
    ]
    mismatches = 0
    epoch_mix = 0
    for sample in answered:
        response = sample.response
        if len(set(response.reply_epochs)) > 1:
            epoch_mix += 1
        oracle = oracles.get(response.served_epoch)
        if oracle is None:
            # An epoch outside the planned sequence is itself a failure.
            mismatches += 1
            continue
        try:
            oracle.check(sample.op, response)
        except OracleViolation:
            mismatches += 1
    latencies = [s.latency_ms for s in answered]
    total = len(samples)
    return {
        "attempts": total,
        "answered": len(answered),
        "exact": len(exact),
        "degraded": len(answered) - len(exact),
        "unavailable": total - len(answered),
        "availability": len(exact) / total if total else 0.0,
        "answered_fraction": len(answered) / total if total else 0.0,
        "p50_ms": _percentile(latencies, 0.50),
        "p99_ms": _percentile(latencies, 0.99),
        "mismatches": mismatches,
        "epoch_mix_violations": epoch_mix,
        "round_wall_s": [round(w, 4) for w in round_wall_s],
        "mean_round_s": (
            round(sum(round_wall_s) / len(round_wall_s), 4)
            if round_wall_s else 0.0
        ),
    }


def measure_reconfig(scale: ReconfigScale, seed: int = 0) -> Dict[str, Any]:
    """Run the reconfiguration benchmark; returns one JSON-ready dict."""
    import tempfile
    from pathlib import Path

    base = build_figure1()
    objects = [
        obj for obj, _ in generate_objects(base, scale.objects, seed=seed)
    ]
    ops = query_workload(base, scale.workload_ops, seed=seed)

    with tempfile.TemporaryDirectory(prefix="repro-reconfig-bench-") as tmp:
        tmpdir = Path(tmp)
        spaces = _epoch_spaces(base, scale.rounds, tmpdir)
        oracles = {
            space.topology_epoch: DifferentialOracle(space, objects)
            for space in spaces
        }

        rolling = _measure_rolling(scale, objects, ops, oracles)
        stop_world = _measure_stop_world(scale, objects, ops, oracles)

    advantage = (
        rolling["availability"] / stop_world["availability"]
        if stop_world["availability"] else float("inf")
    )
    return {
        "scale": scale.name,
        "seed": seed,
        "shards": scale.shards,
        "rounds": scale.rounds,
        "rolling": rolling,
        "stop_world": stop_world,
        "availability_advantage": (
            round(advantage, 4) if advantage != float("inf") else None
        ),
    }


def _fresh_space(base_dicts_source: IndoorSpace) -> IndoorSpace:
    fresh = space_from_dict(space_to_dict(base_dicts_source))
    fresh.restore_topology_epoch(base_dicts_source.topology_epoch)
    return fresh


def _measure_rolling(
    scale: ReconfigScale,
    objects,
    ops: List[WorkloadOp],
    oracles: Dict[int, DifferentialOracle],
) -> Dict[str, Any]:
    """Mutations rolled through the live fleet; the pump never pauses."""
    framework = IndexFramework.build(_fresh_space(build_figure1()), objects)
    service = ShardedQueryService(
        framework=framework,
        shards=scale.shards,
        cache_capacity=0,
        start_method="fork",
    )
    service.start(wait=True)
    pump = _QueryPump(ops, scale.pump_pause_ms)
    pump.service = service
    round_wall_s: List[float] = []
    try:
        pump.start()
        recorder = service.wal_recorder()
        for index in range(scale.rounds):
            start = time.perf_counter()
            _apply_round(recorder, index)
            round_s = time.perf_counter() - start
            round_wall_s.append(round_s)
            # Self-normalising duty cycle: serve for at least twice as
            # long as the round took, so availability measures the
            # protocol's overhead rather than this host's build speed.
            time.sleep(max(scale.settle_s / scale.rounds, 2.0 * round_s))
        time.sleep(scale.settle_s)
    finally:
        pump.stop()
        service.shutdown()
    return _summarise(pump.samples, oracles, round_wall_s)


def _measure_stop_world(
    scale: ReconfigScale,
    objects,
    ops: List[WorkloadOp],
    oracles: Dict[int, DifferentialOracle],
) -> Dict[str, Any]:
    """The baseline: every mutation is a full shutdown-rebuild-restart."""
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory(prefix="repro-stopworld-") as tmp:
        tmpdir = Path(tmp)
        space = _fresh_space(build_figure1())
        recorder = WalRecorder(
            space, TopologyWAL(tmpdir / "stop-world-wal.log")
        )

        def fleet() -> ShardedQueryService:
            framework = IndexFramework.build(space, objects)
            service = ShardedQueryService(
                framework=framework,
                shards=scale.shards,
                cache_capacity=0,
                start_method="fork",
            )
            service.start(wait=True)
            return service

        service = fleet()
        pump = _QueryPump(ops, scale.pump_pause_ms)
        pump.service = service
        round_wall_s: List[float] = []
        try:
            pump.start()
            for index in range(scale.rounds):
                start = time.perf_counter()
                pump.service = None
                service.shutdown()
                _apply_round(recorder, index)
                service = fleet()
                pump.service = service
                round_s = time.perf_counter() - start
                round_wall_s.append(round_s)
                # Same duty cycle as the rolling run, for a fair fight.
                time.sleep(max(scale.settle_s / scale.rounds, 2.0 * round_s))
            time.sleep(scale.settle_s)
        finally:
            pump.stop()
            service.shutdown()
    return _summarise(pump.samples, oracles, round_wall_s)


def render_reconfig_summary(result: Dict[str, Any]) -> str:
    """A short plain-text summary of one :func:`measure_reconfig` result."""
    lines = [
        f"reconfig-bench  scale={result['scale']}  seed={result['seed']}  "
        f"shards={result['shards']}  rounds={result['rounds']}",
    ]
    for strategy in ("rolling", "stop_world"):
        section = result[strategy]
        lines.append(
            f"  {strategy:<10}  availability {section['availability']:.3f}  "
            f"(exact {section['exact']}/{section['attempts']}, "
            f"degraded {section['degraded']}, "
            f"unavailable {section['unavailable']})   "
            f"p50 {section['p50_ms']:.1f} ms  p99 {section['p99_ms']:.1f} ms  "
            f"mean round {section['mean_round_s']:.2f} s"
        )
        lines.append(
            f"              mismatches {section['mismatches']}  "
            f"epoch-mix violations {section['epoch_mix_violations']}"
        )
    advantage = result.get("availability_advantage")
    lines.append(
        "  rolling serves "
        + (f"{advantage:.2f}x" if advantage is not None else "infinitely")
        + " more exact answers per attempt than stop-the-world"
    )
    return "\n".join(lines)
