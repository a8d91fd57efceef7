"""Process supervision for the sharded serving tier.

:class:`ShardSupervisor` owns the worker fleet: it spawns one process per
:class:`~repro.shard.spec.ShardSpec`, watches each with heartbeat pings
and a liveness deadline, and restarts casualties with exponential backoff
under a per-shard restart budget.  It deliberately mirrors the
single-process :class:`~repro.serve.lifecycle.SupervisedQueryService`
semantics one level up: a shard is STARTING until its worker reports
``ready`` (having run the arena → snapshot → rebuild ladder), READY while
it answers, RESTARTING between incarnations, and FAILED once its budget is
spent — at which point the router simply treats it as permanently missing
and keeps degrading that slice of every answer.

Failure detection is two-pronged, matching the two ways a process dies:

* **crash** — the worker's end of the pipe closes; the receiver thread
  sees EOF and fails every pending future *immediately* (no query waits a
  full timeout on a dead process).
* **hang** — the process is alive but stopped answering pings; the monitor
  thread kills it once ``liveness_timeout`` elapses without a pong.

Workers default to the ``spawn`` start method: the supervisor runs inside
a threaded service, and forking a multi-threaded process can deadlock the
child in a held allocator or pipe lock — precisely at restart time, when
it matters most.  Tests on Linux may pass ``start_method="fork"`` to skip
interpreter boot.
"""

from __future__ import annotations

import dataclasses
import enum
import multiprocessing
import random
import threading
import time
from concurrent.futures import Future, InvalidStateError
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import repro.exceptions as _exceptions
from repro.exceptions import ReproError, ShardUnavailableError
from repro.serve.metrics import MetricsRegistry
from repro.serve.requests import QueryRequest
from repro.shard.spec import ShardSpec
from repro.shard.worker import shard_worker_main


class ShardAnswer(NamedTuple):
    """One worker's exact answer plus the topology epoch it was computed
    at — the unit the router's epoch fence filters on."""

    value: Any
    epoch: int


class ShardState(enum.Enum):
    """Lifecycle of one shard slot (not one process — slots survive their
    incarnations)."""

    STARTING = "starting"
    READY = "ready"
    RESTARTING = "restarting"
    FAILED = "failed"
    STOPPED = "stopped"


def _rebuild_exception(name: str, message: str) -> Exception:
    """Reconstruct a worker-side :class:`ReproError` by class name (falls
    back to the base class for anything unknown)."""
    cls = getattr(_exceptions, name, None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        try:
            return cls(message)
        except TypeError:  # multi-arg constructor
            return ReproError(f"{name}: {message}")
    return ReproError(f"{name}: {message}")


#: Cap on queries combined into one ``batch`` pipe message, so a backlog
#: can never wedge a worker behind an unbounded batch (liveness pings
#: queue on the same pipe).
_MAX_BATCH = 32


class _Incarnation:
    """One worker process plus its pipe and receiver thread.

    All mutable state is guarded by ``self._lock``; the receiver thread is
    the only writer of results, the monitor and router threads the only
    senders.  A fresh incarnation is built for every (re)start — futures
    never migrate between processes.

    Query submission uses *send combining*: the first submitter becomes
    the flusher and drains the outbox in combined ``batch`` messages;
    submitters arriving while a send is in flight just append and return.
    Under concurrent load the per-message pipe overhead (pickle header,
    syscall, reader wake-up) amortises across the batch, and an idle
    tier still sends every query immediately — no Nagle timer, no added
    latency.  Actual pipe writes serialise on ``self._send_lock`` so a
    combined send can never interleave with a ping or a control message.
    """

    def __init__(self, spec: ShardSpec, ctx) -> None:
        self._lock = threading.Lock()
        self._send_lock = threading.Lock()
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=shard_worker_main,
            args=(spec, child_conn),
            name=f"repro-shard-{spec.shard_id}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()  # parent keeps one end only, so EOF propagates
        self.conn = parent_conn
        self.ready_event = threading.Event()
        self.spec = spec
        with self._lock:
            self._pending: Dict[int, Future] = {}
            self._control: Dict[Tuple[str, int], Future] = {}
            self._outbox: List[Any] = []
            self._flushing = False
            self._seq = 0
            self._last_pong = time.monotonic()
            self._ready_info: Optional[Dict[str, Any]] = None
            self._start_error: Optional[str] = None
            self._dead = False
        self.receiver = threading.Thread(
            target=self._receive_loop,
            name=f"repro-shard-recv-{spec.shard_id}",
            daemon=True,
        )
        self.receiver.start()

    # -- receiver thread ------------------------------------------------
    def _receive_loop(self) -> None:
        while True:
            try:
                message = self.conn.recv()
            except (EOFError, OSError):
                self._mark_dead("worker pipe closed")
                return
            kind = message[0]
            if kind == "result" or kind == "error":
                self._dispatch_reply(message)
            elif kind == "batch_result":
                for reply in message[1]:
                    self._dispatch_reply(reply)
            elif kind == "pong":
                with self._lock:
                    self._last_pong = time.monotonic()
            elif kind in ("prepare_ack", "commit_ack", "abort_ack"):
                # Reconfig control-plane acks double as liveness proof:
                # a worker deep in a staging rebuild answers no pings,
                # but its eventual ack resets the hang clock.
                epoch = int(message[1])
                result = tuple(message[2:])
                with self._lock:
                    self._last_pong = time.monotonic()
                    future = self._control.pop(
                        (kind.split("_")[0], epoch), None
                    )
                if future is not None:
                    try:
                        future.set_result(result)
                    except InvalidStateError:  # pragma: no cover - late ack
                        pass
            elif kind == "ready":
                with self._lock:
                    self._ready_info = message[1]
                    self._last_pong = time.monotonic()
                self.ready_event.set()
            elif kind == "start_failed":
                with self._lock:
                    self._start_error = message[1]
                self.ready_event.set()
            elif kind == "stopped":
                self._mark_dead("worker stopped cleanly")
                return

    def _dispatch_reply(self, reply: Any) -> None:
        """Resolve one ``result`` / ``error`` reply tuple's future.

        A hedged gather cancels the losing probe's future; its reply
        still arrives here later, and resolving a cancelled future would
        raise and kill the receive loop — wedging every request the
        shard has in flight.  Late replies to cancelled futures are
        simply dropped.
        """
        if reply[0] == "result":
            _, seq, value, epoch = reply
            future = self._pop_pending(seq)
            if future is not None:
                try:
                    future.set_result(ShardAnswer(value, int(epoch)))
                except InvalidStateError:
                    pass  # cancelled mid-dispatch: drop the late reply
        else:
            _, seq, exc_name, detail, _epoch = reply
            future = self._pop_pending(seq)
            if future is not None:
                try:
                    future.set_exception(_rebuild_exception(exc_name, detail))
                except InvalidStateError:
                    pass  # cancelled mid-dispatch: drop the late reply

    def _pop_pending(self, seq: int) -> Optional[Future]:
        with self._lock:
            return self._pending.pop(seq, None)

    def _mark_dead(self, why: str) -> None:
        with self._lock:
            if self._dead:
                return
            self._dead = True
            pending = list(self._pending.values())
            pending.extend(self._control.values())
            self._pending.clear()
            self._control.clear()
            self._outbox.clear()
        self.ready_event.set()
        exc = ShardUnavailableError(
            f"shard {self.spec.shard_id} became unavailable: {why}",
            shard=self.spec.shard_id,
            state=ShardState.RESTARTING.value,
        )
        for future in pending:
            try:
                if not future.done():
                    future.set_exception(exc)
            except InvalidStateError:
                pass  # a hedge cancellation won the race; nothing waits

    # -- senders (router / monitor threads) -----------------------------
    def submit(self, request: QueryRequest, budget_s: Optional[float]) -> Future:
        future: Future = Future()
        with self._lock:
            if self._dead:
                raise ShardUnavailableError(
                    f"shard {self.spec.shard_id} worker is gone",
                    shard=self.spec.shard_id,
                    state=ShardState.RESTARTING.value,
                )
            self._seq += 1
            seq = self._seq
            self._pending[seq] = future
            self._outbox.append((seq, request, budget_s))
            if self._flushing:
                # The active flusher will pick this item up in its next
                # combined send; returning now is what makes submits
                # under load coalesce instead of queueing on the pipe.
                return future
            self._flushing = True
        self._flush_outbox()
        return future

    def _flush_outbox(self) -> None:
        """Drain the outbox in ``batch`` messages of at most
        ``_MAX_BATCH`` queries.  Exactly one thread runs this at a time
        (``self._flushing``); the pipe write happens outside
        ``self._lock`` so concurrent submitters keep appending."""
        while True:
            with self._lock:
                if self._dead:
                    self._outbox.clear()
                    self._flushing = False
                    return
                batch = self._outbox[:_MAX_BATCH]
                del self._outbox[:_MAX_BATCH]
                if not batch:
                    self._flushing = False
                    return
            try:
                # ``_send_lock`` exists solely to serialise pipe writes;
                # it guards no shared state, ``self._lock`` is never held
                # here (the batch was copied out above), and every other
                # contender is itself a sender — so a slow drain delays
                # only other traffic to the same worker, never the
                # supervisor.  The monitor's ping() uses a non-blocking
                # acquire, so it can't wedge behind this send either.
                with self._send_lock:
                    if len(batch) == 1:
                        seq, request, budget_s = batch[0]
                        self.conn.send(  # repro: noqa REP007
                            ("query", seq, request, budget_s)
                        )
                    else:
                        self.conn.send(("batch", batch))  # repro: noqa REP007
            except (BrokenPipeError, OSError):
                # _mark_dead fails the batch's futures (still pending)
                # along with everything else in flight.
                self._mark_dead("worker pipe broke mid-send")
                with self._lock:
                    self._flushing = False
                return

    def request_control(self, kind: str, epoch: int, message: Tuple) -> Future:
        """Send one reconfig control message and return the future its
        ``<kind>_ack`` will resolve (fails with
        :class:`ShardUnavailableError` if the worker dies first)."""
        future: Future = Future()
        with self._lock:
            if self._dead:
                raise ShardUnavailableError(
                    f"shard {self.spec.shard_id} worker is gone",
                    shard=self.spec.shard_id,
                    state=ShardState.RESTARTING.value,
                )
            self._control[(kind, epoch)] = future
        try:
            # Dedicated pipe-write serialiser, no state guarded, no other
            # lock held (see _flush_outbox) — only senders contend.
            with self._send_lock:
                self.conn.send(message)  # repro: noqa REP007
        except (BrokenPipeError, OSError):
            self._mark_dead("worker pipe broke mid-send")
        return future

    def send(self, *message: Any) -> bool:
        """Best-effort control-plane send; False when the pipe is gone."""
        with self._lock:
            if self._dead:
                return False
        try:
            # Dedicated pipe-write serialiser, no state guarded, no other
            # lock held (see _flush_outbox) — only senders contend.
            with self._send_lock:
                self.conn.send(tuple(message))  # repro: noqa REP007
        except (BrokenPipeError, OSError):
            return False
        return True

    def ping(self) -> None:
        with self._lock:
            if self._dead:
                return
            self._seq += 1
            seq = self._seq
        # Never *wait* for the send lock: if a data-plane send is stuck
        # on a full pipe (hung worker), blocking here would wedge the
        # monitor's liveness sweep for every other shard.  Skipping the
        # ping is safe — the pong clock keeps ageing, so hang detection
        # still fires on schedule.
        if not self._send_lock.acquire(blocking=False):
            return
        try:
            self.conn.send(("ping", seq))
        except (BrokenPipeError, OSError):
            pass
        finally:
            self._send_lock.release()

    # -- state ----------------------------------------------------------
    @property
    def dead(self) -> bool:
        with self._lock:
            return self._dead

    @property
    def last_pong(self) -> float:
        with self._lock:
            return self._last_pong

    @property
    def ready_info(self) -> Optional[Dict[str, Any]]:
        with self._lock:
            return self._ready_info

    @property
    def start_error(self) -> Optional[str]:
        with self._lock:
            return self._start_error

    def close(self) -> None:
        self._mark_dead("incarnation closed")
        try:
            self.conn.close()
        except OSError:  # pragma: no cover
            pass


class _Slot:
    """Supervisor-side bookkeeping for one shard id (lock: supervisor's)."""

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self.state = ShardState.STARTING
        self.incarnation: Optional[_Incarnation] = None
        self.restarts = 0
        self.next_restart_at = 0.0
        self.cold_next = False  # strip the arena from the next respawn
        self.source: Optional[str] = None
        self.epoch: Optional[int] = None
        # When the worker's served epoch started trailing its spec's —
        # the monitor restarts it once the lag outlives the grace period
        # (the self-healing path for a torn commit).
        self.lag_since: Optional[float] = None
        # Per-slot seeded RNG for decorrelated restart jitter: shards
        # draw different delays from each other, yet every supervisor
        # run over the same casualty sequence replays identically.
        self.backoff_rng = random.Random(0xBACC0FF ^ spec.shard_id)
        self.prev_backoff = 0.0


class ShardSupervisor:
    """Spawn, watch, and restart the shard worker fleet.

    Args:
        specs: one spec per shard (shard ids must be dense from 0).
        metrics: registry for supervision counters (shared with the
            router so one snapshot shows the whole tier).
        heartbeat_interval: seconds between liveness pings.
        liveness_timeout: seconds without a pong before a worker is
            declared hung and killed.
        start_timeout: seconds a (re)started worker gets to report ready.
        restart_backoff: base restart delay.  Consecutive restarts back
            off with decorrelated jitter — each delay drawn uniformly
            from ``[restart_backoff, 3 × previous]``, capped at
            ``max_backoff`` — so simultaneous casualties don't restart
            in lockstep and stampede.  Each slot's jitter RNG is seeded
            from its shard id (deterministic replay).
        restart_budget: restarts allowed per shard before it is FAILED.
        start_method: ``multiprocessing`` start method (default
            ``"spawn"``; see module docstring).
        epoch_lag_grace: seconds a READY worker may serve an epoch older
            than its spec's before the monitor restarts it onto the new
            spec (the self-healing path when a reconfig round was torn
            mid-commit).  Defaults to twice the liveness timeout so a
            healthy in-flight round never trips it.
    """

    def __init__(
        self,
        specs: List[ShardSpec],
        *,
        metrics: Optional[MetricsRegistry] = None,
        heartbeat_interval: float = 0.2,
        liveness_timeout: float = 3.0,
        start_timeout: float = 60.0,
        restart_backoff: float = 0.05,
        max_backoff: float = 2.0,
        restart_budget: int = 5,
        start_method: str = "spawn",
        epoch_lag_grace: Optional[float] = None,
    ) -> None:
        if not specs:
            raise ValueError("supervisor needs at least one shard spec")
        if sorted(s.shard_id for s in specs) != list(range(len(specs))):
            raise ValueError("shard ids must be dense starting from 0")
        self.metrics = metrics or MetricsRegistry()
        self.heartbeat_interval = heartbeat_interval
        self.liveness_timeout = liveness_timeout
        self.start_timeout = start_timeout
        self.restart_backoff = restart_backoff
        self.max_backoff = max_backoff
        self.restart_budget = restart_budget
        self.epoch_lag_grace = (
            epoch_lag_grace
            if epoch_lag_grace is not None
            else 2.0 * liveness_timeout
        )
        self._ctx = multiprocessing.get_context(start_method)
        self._lock = threading.Lock()
        with self._lock:
            self._slots: Dict[int, _Slot] = {
                spec.shard_id: _Slot(spec) for spec in specs
            }
            self._events: List[Dict[str, Any]] = []
            self._stopping = False
            self._monitor: Optional[threading.Thread] = None
            # The fence epoch rises the moment a reconfig round retargets
            # the fleet (no exact answer below it may leave the router);
            # the committed epoch follows once the round completes.
            base_epoch = max(spec.topology_epoch for spec in specs)
            self._fence_epoch = base_epoch
            self._committed_epoch = base_epoch

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ShardSupervisor":
        """Spawn every worker and the monitor thread (idempotent)."""
        with self._lock:
            if self._monitor is not None:
                return self
            self._monitor = threading.Thread(
                target=self._monitor_loop,
                name="repro-shard-monitor",
                daemon=True,
            )
            slots = list(self._slots.values())
        for slot in slots:
            self._spawn(slot)
        self._monitor.start()
        return self

    def _spawn(self, slot: _Slot) -> None:
        """(Re)start ``slot``'s worker.  Call *without* ``self._lock``:
        spawning pickles the spec and forks an interpreter — far too slow
        to run under the lock every submitter needs.  The slot is claimed
        under the lock, the process started lock-free, and the
        incarnation installed under the lock again (discarded if the
        supervisor began stopping or the slot was retired meanwhile)."""
        with self._lock:
            if self._stopping:
                return
            spec = slot.spec
            if slot.cold_next:
                spec = dataclasses.replace(spec, arena=None)
                slot.cold_next = False
            slot.incarnation = None
            slot.state = ShardState.STARTING
            slot.source = None
        incarnation = _Incarnation(spec, self._ctx)
        with self._lock:
            installed = (
                not self._stopping
                and slot.state is ShardState.STARTING
                and slot.incarnation is None
            )
            if installed:
                slot.incarnation = incarnation
        if not installed:
            incarnation.close()
            return
        self.metrics.increment("shard.supervisor.spawns")

    def await_ready(self, timeout: Optional[float] = None) -> bool:
        """Block until every non-FAILED shard is READY (True on success).

        A READY slot whose worker has already died counts as restarting:
        the monitor only buries a crashed worker on its next pass, and
        until then the slot still reads READY.
        """
        deadline = time.monotonic() + (timeout if timeout is not None else 3600.0)
        while time.monotonic() < deadline:
            states = self._settled_states()
            if any(
                s in (ShardState.STARTING, ShardState.RESTARTING)
                for s in states.values()
            ):
                time.sleep(0.01)
                continue
            return all(s is ShardState.READY for s in states.values())
        return False

    def _settled_states(self) -> Dict[int, ShardState]:
        """:meth:`states`, with a READY slot whose worker is gone read as
        RESTARTING (what the monitor's next pass will make it)."""
        with self._lock:
            states = {}
            for sid, slot in self._slots.items():
                state = slot.state
                incarnation = slot.incarnation
                if state is ShardState.READY and (
                    incarnation.dead or not incarnation.process.is_alive()
                ):
                    state = ShardState.RESTARTING
                states[sid] = state
            return states

    def stop(self) -> None:
        """Drain and stop every worker, then the monitor."""
        with self._lock:
            self._stopping = True
            monitor = self._monitor
            slots = list(self._slots.values())
        if monitor is not None:
            monitor.join(timeout=5.0)
        for slot in slots:
            with self._lock:
                incarnation = slot.incarnation
                slot.state = ShardState.STOPPED
            if incarnation is None:
                continue
            incarnation.send("stop")
            if incarnation.process.is_alive():
                incarnation.process.join(timeout=5.0)
            if incarnation.process.is_alive():  # pragma: no cover - stuck
                incarnation.process.kill()
                incarnation.process.join(timeout=5.0)
            incarnation.close()

    def __enter__(self) -> "ShardSupervisor":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Monitoring
    # ------------------------------------------------------------------
    def _monitor_loop(self) -> None:
        while True:
            with self._lock:
                if self._stopping:
                    return
                slots = list(self._slots.values())
            for slot in slots:
                self._check_slot(slot)
            time.sleep(self.heartbeat_interval)

    def _check_slot(self, slot: _Slot) -> None:
        now = time.monotonic()
        ping, respawn = self._check_slot_locked(slot, now)
        # Both the respawn (pickle + fork) and the heartbeat (pipe write)
        # run after self._lock is released: a restarting or slow shard
        # must never stall submitters queued on the supervisor lock.
        if respawn:
            self._spawn(slot)
        elif ping is not None:
            ping.ping()

    def _check_slot_locked(
        self, slot: _Slot, now: float
    ) -> Tuple[Optional[_Incarnation], bool]:
        """One monitor pass over ``slot`` under ``self._lock``.

        Returns ``(incarnation to ping, respawn due)`` — the blocking
        halves of both actions happen in :meth:`_check_slot` after the
        lock is dropped.
        """
        with self._lock:
            if self._stopping:
                return None, False
            incarnation = slot.incarnation
            state = slot.state

            if state is ShardState.FAILED or state is ShardState.STOPPED:
                return None, False

            if state is ShardState.RESTARTING:
                return None, now >= slot.next_restart_at

            assert incarnation is not None
            if state is ShardState.STARTING:
                info = incarnation.ready_info
                if info is not None:
                    if int(info.get("topology_epoch", -1)) != slot.spec.topology_epoch:
                        # A planned transition, not a fault: the worker
                        # rejoined from stale state (old arena, old
                        # private snapshot) while the fleet moved on.
                        # Restarting it from the current spec forces the
                        # rebuild rung at the spec's epoch without
                        # burning the fault budget.
                        self._record_event_locked(
                            slot.spec.shard_id,
                            "epoch_mismatch",
                            f"worker rejoined at epoch {info.get('topology_epoch')}, "
                            f"expected {slot.spec.topology_epoch}",
                        )
                        self.metrics.increment("reconfig.planned_restarts")
                        slot.cold_next = True
                        self._bury_locked(
                            slot, incarnation, kill=True, planned=True
                        )
                        return None, False
                    slot.state = ShardState.READY
                    slot.source = info.get("source")
                    slot.epoch = int(info.get("topology_epoch", -1))
                    slot.lag_since = None
                    self._record_event_locked(
                        slot.spec.shard_id, "ready", f"source={slot.source}"
                    )
                    return None, False
                if incarnation.start_error is not None:
                    self._record_event_locked(
                        slot.spec.shard_id,
                        "start_failed",
                        incarnation.start_error,
                    )
                    self._bury_locked(slot, incarnation, kill=True)
                    return None, False
                if incarnation.dead or not incarnation.process.is_alive():
                    self._record_event_locked(
                        slot.spec.shard_id, "died_starting", ""
                    )
                    self._bury_locked(slot, incarnation, kill=False)
                    return None, False
                if now - incarnation.last_pong > self.start_timeout:
                    self._record_event_locked(
                        slot.spec.shard_id, "start_timeout", ""
                    )
                    self._bury_locked(slot, incarnation, kill=True)
                return None, False

            # READY: crash detection, then hang detection, then epoch-lag
            # convergence, then heartbeat.
            if incarnation.dead or not incarnation.process.is_alive():
                self._record_event_locked(slot.spec.shard_id, "died", "")
                self._bury_locked(slot, incarnation, kill=False)
                return None, False
            if now - incarnation.last_pong > self.liveness_timeout:
                self._record_event_locked(
                    slot.spec.shard_id,
                    "hung",
                    f"no pong for {now - incarnation.last_pong:.2f}s",
                )
                self._bury_locked(slot, incarnation, kill=True)
                return None, False
            # A worker serving an epoch older than its spec's is lagging a
            # reconfig round.  Normally the coordinator commits it within
            # milliseconds; if the coordinator died between prepare and
            # commit (a torn round), the lag persists and this planned
            # restart re-materialises the worker from the already
            # retargeted spec — it rejoins at the new epoch with no
            # operator involvement.
            if (
                slot.epoch is not None
                and slot.epoch < slot.spec.topology_epoch
            ):
                if slot.lag_since is None:
                    slot.lag_since = now
                elif now - slot.lag_since > self.epoch_lag_grace:
                    self._record_event_locked(
                        slot.spec.shard_id,
                        "epoch_lag_restart",
                        f"serving epoch {slot.epoch}, spec demands "
                        f"{slot.spec.topology_epoch}",
                    )
                    self.metrics.increment("reconfig.planned_restarts")
                    slot.lag_since = None
                    self._bury_locked(slot, incarnation, kill=True)
                    return None, False
            else:
                slot.lag_since = None
            return incarnation, False

    def _bury_locked(
        self,
        slot: _Slot,
        incarnation: _Incarnation,
        kill: bool,
        planned: bool = False,
    ) -> None:
        """Retire a dead/hung incarnation and schedule (or refuse) the
        restart. Caller holds ``self._lock``.

        ``planned=True`` marks a reconfig-driven transition (epoch
        mismatch, epoch lag, a worker that nacked a prepare): it restarts
        promptly at the base backoff and does not burn the fault budget —
        rolling the fleet forward is not a crash.
        """
        if kill and incarnation.process.is_alive():
            incarnation.process.kill()
        incarnation.close()
        slot.incarnation = None
        if planned:
            slot.next_restart_at = time.monotonic() + self.restart_backoff
            slot.state = ShardState.RESTARTING
            self._record_event_locked(
                slot.spec.shard_id,
                "planned_restart_scheduled",
                f"rejoin at epoch {slot.spec.topology_epoch}",
            )
            return
        self.metrics.increment("shard.supervisor.deaths")
        if slot.restarts >= self.restart_budget:
            slot.state = ShardState.FAILED
            self._record_event_locked(
                slot.spec.shard_id,
                "failed",
                f"restart budget of {self.restart_budget} exhausted",
            )
            return
        slot.restarts += 1
        # Decorrelated jitter, not deterministic doubling: simultaneous
        # casualties restarting in lockstep re-stampede the same startup
        # path on every retry.  Each delay is drawn from
        # [base, 3 × previous], so consecutive restarts still back off
        # exponentially in expectation while the fleet spreads out.
        prev = max(slot.prev_backoff, self.restart_backoff)
        backoff = min(
            self.max_backoff,
            slot.backoff_rng.uniform(self.restart_backoff, prev * 3.0),
        )
        slot.prev_backoff = backoff
        slot.next_restart_at = time.monotonic() + backoff
        slot.state = ShardState.RESTARTING
        self.metrics.increment("shard.supervisor.restarts")
        self._record_event_locked(
            slot.spec.shard_id,
            "restart_scheduled",
            f"attempt {slot.restarts}, backoff {backoff:.3f}s",
        )

    def _record_event_locked(self, shard: int, event: str, detail: str) -> None:
        self._events.append(
            {
                "shard": shard,
                "event": event,
                "detail": detail,
                "at": time.monotonic(),
            }
        )

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def submit(
        self,
        shard_id: int,
        request: QueryRequest,
        budget_s: Optional[float] = None,
    ) -> Future:
        """Dispatch one request to one shard; the future resolves with the
        worker's exact answer or fails with the worker's error.

        Raises:
            ShardUnavailableError: when the shard is not READY right now.
        """
        with self._lock:
            slot = self._slots.get(shard_id)
            if slot is None:
                raise ShardUnavailableError(
                    f"no such shard {shard_id}", shard=shard_id
                )
            if slot.state is not ShardState.READY or slot.incarnation is None:
                raise ShardUnavailableError(
                    f"shard {shard_id} is {slot.state.value}",
                    shard=shard_id,
                    state=slot.state.value,
                )
            incarnation = slot.incarnation
        return incarnation.submit(request, budget_s)

    # ------------------------------------------------------------------
    # Reconfiguration control plane (driven by ReconfigCoordinator)
    # ------------------------------------------------------------------
    @property
    def fence_epoch(self) -> int:
        """Minimum topology epoch an exact reply must carry to be merged.
        Rises the instant a round retargets the fleet."""
        with self._lock:
            return self._fence_epoch

    @property
    def committed_epoch(self) -> int:
        """Epoch of the last reconfig round that ran to completion."""
        with self._lock:
            return self._committed_epoch

    def retarget(self, specs: Dict[int, ShardSpec], fence_epoch: int) -> None:
        """Swap every slot's spec to the next epoch and raise the fence.

        From this call on, **any** restart — planned or crash — rejoins
        at the new epoch, and the router discards exact replies below
        ``fence_epoch``.  This is the round's point of no return: even if
        the coordinator dies immediately after, the fleet converges to
        the new epoch via the monitor's epoch-lag restarts.
        """
        with self._lock:
            for shard_id, spec in specs.items():
                slot = self._require_slot_locked(shard_id)
                slot.spec = spec
            self._fence_epoch = max(self._fence_epoch, fence_epoch)

    def mark_committed(self, epoch: int) -> None:
        """Record that the round for ``epoch`` completed fleet-wide."""
        with self._lock:
            self._committed_epoch = max(self._committed_epoch, epoch)

    def prepare_shard(
        self,
        shard_id: int,
        target_epoch: int,
        records: List[Dict[str, Any]],
        timeout: float,
    ) -> Tuple[bool, str]:
        """Two-phase step 1 for one shard: ship the WAL delta, await the
        staging ack.  ``(ok, detail)``; never raises for per-shard
        trouble — an unavailable/dead/timing-out worker is ``(False, …)``
        and the caller decides between retry and planned restart."""
        try:
            incarnation = self._ready_incarnation(shard_id)
            future = incarnation.request_control(
                "prepare", target_epoch,
                ("prepare", target_epoch, records),
            )
            ok, detail = future.result(timeout)
        except ShardUnavailableError as exc:
            return False, str(exc)
        except FutureTimeoutError:
            return False, f"no prepare ack within {timeout:.2f}s"
        return bool(ok), str(detail)

    def commit_shard(
        self, shard_id: int, target_epoch: int, timeout: float
    ) -> Tuple[bool, str]:
        """Two-phase step 2 for one shard: flip its served epoch."""
        try:
            incarnation = self._ready_incarnation(shard_id)
            future = incarnation.request_control(
                "commit", target_epoch, ("commit", target_epoch)
            )
            ok, detail = future.result(timeout)
        except ShardUnavailableError as exc:
            return False, str(exc)
        except FutureTimeoutError:
            return False, f"no commit ack within {timeout:.2f}s"
        if ok:
            with self._lock:
                slot = self._slots.get(shard_id)
                if slot is not None:
                    slot.epoch = target_epoch
                    slot.lag_since = None
        return bool(ok), str(detail)

    def abort_shard(self, shard_id: int, target_epoch: int) -> None:
        """Tell one shard to drop anything staged for ``target_epoch``
        (best-effort; a dead worker has nothing staged anyway)."""
        with self._lock:
            slot = self._slots.get(shard_id)
            incarnation = slot.incarnation if slot is not None else None
        if incarnation is not None:
            incarnation.send("abort", target_epoch)

    def planned_restart(self, shard_id: int) -> None:
        """Restart one worker as a planned epoch transition: it rejoins
        by re-materialising from its (already retargeted) slot spec
        without burning the fault budget."""
        with self._lock:
            slot = self._require_slot_locked(shard_id)
            incarnation = slot.incarnation
            if incarnation is None:
                return  # already between incarnations; respawn is queued
            self._record_event_locked(
                shard_id,
                "planned_restart",
                f"rejoin at epoch {slot.spec.topology_epoch}",
            )
            self.metrics.increment("reconfig.planned_restarts")
            self._bury_locked(slot, incarnation, kill=True, planned=True)

    def _ready_incarnation(self, shard_id: int) -> _Incarnation:
        with self._lock:
            slot = self._require_slot_locked(shard_id)
            if slot.state is not ShardState.READY or slot.incarnation is None:
                raise ShardUnavailableError(
                    f"shard {shard_id} is {slot.state.value}",
                    shard=shard_id,
                    state=slot.state.value,
                )
            return slot.incarnation

    # ------------------------------------------------------------------
    # Chaos hooks
    # ------------------------------------------------------------------
    def kill_shard(self, shard_id: int, cold: bool = False) -> None:
        """SIGKILL a worker (chaos). ``cold=True`` also strips the arena
        descriptor from the next respawn, forcing the snapshot/rebuild
        rungs — the warm restart is restored on later incarnations."""
        with self._lock:
            slot = self._require_slot_locked(shard_id)
            slot.cold_next = slot.cold_next or cold
            incarnation = slot.incarnation
            self._record_event_locked(shard_id, "chaos_kill", f"cold={cold}")
        if incarnation is not None and incarnation.process.is_alive():
            incarnation.process.kill()

    def hang_shard(self, shard_id: int, seconds: float) -> None:
        """Wedge a worker (chaos): it stops answering for ``seconds`` and
        the liveness deadline decides whether it lives."""
        with self._lock:
            slot = self._require_slot_locked(shard_id)
            incarnation = slot.incarnation
            self._record_event_locked(shard_id, "chaos_hang", f"{seconds}s")
        if incarnation is not None:
            incarnation.send("hang", float(seconds))

    def _require_slot_locked(self, shard_id: int) -> _Slot:
        slot = self._slots.get(shard_id)
        if slot is None:
            raise ShardUnavailableError(
                f"no such shard {shard_id}", shard=shard_id
            )
        return slot

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def states(self) -> Dict[int, ShardState]:
        """Current state per shard id."""
        with self._lock:
            return {sid: slot.state for sid, slot in self._slots.items()}

    @property
    def shard_ids(self) -> List[int]:
        with self._lock:
            return sorted(self._slots)

    def spec_of(self, shard_id: int) -> ShardSpec:
        """The spec shard ``shard_id`` was (re)spawned from."""
        with self._lock:
            return self._require_slot_locked(shard_id).spec

    def readiness(self) -> Dict[str, Any]:
        """Health-endpoint payload: per-shard state, provenance, restart
        accounting, epoch skew against the committed epoch, and the
        supervision event log."""
        with self._lock:
            committed = self._committed_epoch
            fence = self._fence_epoch
            shards = {}
            for sid, slot in sorted(self._slots.items()):
                shards[str(sid)] = {
                    "state": slot.state.value,
                    "source": slot.source,
                    "restarts": slot.restarts,
                    "topology_epoch": slot.epoch,
                    "epoch_skew": (
                        committed - slot.epoch
                        if slot.epoch is not None
                        else None
                    ),
                    "pid": (
                        slot.incarnation.process.pid
                        if slot.incarnation is not None
                        else None
                    ),
                }
            events = list(self._events)
        states = {s["state"] for s in shards.values()}
        return {
            "ready": states == {ShardState.READY.value},
            "committed_epoch": committed,
            "fence_epoch": fence,
            "shards": shards,
            "events": events,
        }
