"""The shard worker process: one spec in, exact answers out.

:func:`shard_worker_main` is the ``multiprocessing`` entry point (module
level, so it imports cleanly under the ``spawn`` start method).  A worker
mirrors the :class:`~repro.serve.lifecycle.SupervisedQueryService`
lifecycle in miniature — STARTING (materialise the spec via the restart
ladder), READY (serve), draining on ``stop`` — but deliberately serves
**exact answers only**: the whole degradation ladder lives in the router,
where a shard's silence is turned into an explicitly degraded partial
result.  A worker that cannot answer exactly says so (an error reply or,
under a crash, pipe EOF); it never guesses.

Wire protocol (tuples over a ``multiprocessing`` duplex pipe):

========================  ==============================================
supervisor → worker        meaning
========================  ==============================================
``("query", seq, req,      evaluate ``req`` with ``budget_s`` seconds of
``budget_s)``              deadline; reply ``("result", seq, value,
                           epoch)`` or ``("error", seq, exc_type,
                           message, epoch)`` — every data-plane reply is
                           stamped with the topology epoch it was
                           computed at so the router can fence merges
``("batch", items)``       evaluate each ``(seq, req, budget_s)`` item in
                           order; reply one ``("batch_result", replies)``
                           carrying the per-item result/error tuples
``("ping", seq)``          liveness probe; reply ``("pong", seq)``
``("prepare", epoch,       stage the next topology epoch from the WAL
``records)``               delta without touching the serving index;
                           reply ``("prepare_ack", epoch, ok, detail)``
``("commit", epoch)``      atomically flip the staged index into
                           service; reply ``("commit_ack", epoch, ok,
                           detail)`` then rewrite the shard snapshot
``("abort", epoch)``       discard the staged index; reply
                           ``("abort_ack", epoch)``
``("hang", seconds)``      chaos: stop replying for ``seconds``
``("exit", code)``         chaos: die immediately (``os._exit``)
``("stop",)``              drain (pipe order guarantees every earlier
                           query was answered), snapshot, exit cleanly
========================  ==============================================

The first message a worker ever sends is ``("ready", summary)`` — where
``summary`` carries the materialisation source and the epochs it rejoined
at — or ``("start_failed", detail)``.

Reconfiguration happens on a **private copy** of the space: ``prepare``
round-trips the current space through its dict form, replays the delta on
the copy, and builds the staged index from it (labels shards reuse the
WAL-driven incremental repair; matrix shards rebuild — see
:func:`repro.shard.reconfig.stage_framework`).  The serving framework is
untouched until ``commit``, so queries interleaved with a prepare keep
answering exactly at the old epoch, and a crash mid-stage loses nothing
but staging work.  ``prepare``/``commit`` for an epoch the worker already
reached ack success idempotently — the coordinator re-delivers both when
it resumes a torn round.  Staging runs inline on the serving loop, so it
must finish well inside the supervisor's liveness deadline; a worker that
blows that deadline is treated as hung and restarted onto the new spec,
which is the planned fallback, not a fault.

Self-healing: when the ladder bottomed out at a full rebuild (the shard's
snapshot was missing or quarantined as corrupt) the worker rewrites its
snapshot immediately, so the *next* restart is warm again.
"""

from __future__ import annotations

import os
import time
from typing import Any, Optional, Tuple

from repro.exceptions import ReproError
from repro.index.framework import IndexFramework
from repro.runtime.deadline import Deadline
from repro.runtime.ladder import RUNGS, QualityLevel
from repro.serve.cache import EpochLRUCache
from repro.serve.requests import QueryRequest
from repro.shard.spec import ShardSpec, materialize

#: Distinguishes "not cached" from any cached value (None, [], 0.0 …).
_MISS = object()


def _evaluate_reply(
    framework: IndexFramework,
    seq: int,
    request: QueryRequest,
    budget_s: Optional[float],
    cache: Optional[EpochLRUCache] = None,
    epoch: int = 0,
) -> Tuple:
    """Evaluate one query on the exact indexed rung and shape its wire
    reply tuple.

    Values have the single-process service's shapes: a sorted id list
    (range), ``(id, distance)`` pairs in ``(distance, id)`` order (kNN),
    or metres (pt2pt) — the shapes the router's merge relies on.

    With a ``cache``, exact answers are memoised per request key: a
    worker re-serving a warm key skips the whole expansion and answers
    at pipe speed.  The router's own cache sees every key first, so the
    worker caches earn their keep exactly when the router's evicted —
    they are the tier's second, horizontally-scaled cache level.
    """
    if cache is not None:
        key = request.cache_key()
        hit = cache.get(key, epoch, _MISS)
        if hit is not _MISS:
            return ("result", seq, hit, epoch)
    deadline = Deadline(budget_s) if budget_s is not None else None
    try:
        exact = RUNGS[request.kind][QualityLevel.EXACT_INDEXED]
        value = exact(framework, request, deadline)
    except ReproError as exc:
        return ("error", seq, type(exc).__name__, str(exc), epoch)
    if cache is not None:
        cache.put(key, epoch, value)
    return ("result", seq, value, epoch)


def _maybe_self_heal_snapshot(
    spec: ShardSpec, framework, source: str
) -> None:
    """After a cold rebuild, rewrite the shard snapshot so the next
    restart takes the warm rung again."""
    if source != "rebuild" or spec.snapshot_path is None:
        return
    from repro.persist.snapshot import save_snapshot

    try:
        save_snapshot(framework, spec.snapshot_path)
    except OSError:  # pragma: no cover - disk trouble; serve anyway
        pass


def _stage_for_prepare(
    framework, spec: ShardSpec, epoch: int, target: int, raw_records
) -> Tuple:
    """Build the staged framework for a ``prepare``; returns the ack tuple
    plus the staged ``(target, framework)`` pair (``None`` on failure or
    when the worker is already at/beyond the target)."""
    from repro.shard.reconfig import stage_framework

    if target <= epoch:
        return ("prepare_ack", target, True, f"already at epoch {epoch}"), None
    try:
        from repro.persist.wal import WalRecord

        records = [WalRecord.from_dict(raw) for raw in raw_records]
        staged_fw, how = stage_framework(framework, records, spec.backend)
    except BaseException as exc:
        return (
            "prepare_ack", target, False, f"{type(exc).__name__}: {exc}",
        ), None
    if staged_fw.space.topology_epoch != target:
        return (
            "prepare_ack", target, False,
            f"delta lands at epoch {staged_fw.space.topology_epoch}, "
            f"not {target}",
        ), None
    return ("prepare_ack", target, True, how), (target, staged_fw)


def shard_worker_main(spec: ShardSpec, conn) -> None:
    """Run one shard worker over its end of a duplex pipe (blocking)."""
    arena = None
    try:
        try:
            framework, source, arena = materialize(spec)
        except BaseException as exc:
            conn.send(("start_failed", f"{type(exc).__name__}: {exc}"))
            return
        _maybe_self_heal_snapshot(spec, framework, source)
        # Warm the door-geometry memo caches before declaring READY: the
        # arena/snapshot rungs skip the full index build that would have
        # filled them, and a cold cache pays per-query geometry on the
        # serving path instead of once here.
        framework.space.distance_graph.precompute()
        cache = (
            EpochLRUCache(spec.cache_capacity)
            if spec.cache_capacity > 0
            else None
        )
        epoch = spec.topology_epoch
        staged: Optional[Tuple[int, Any]] = None
        summary = dict(spec.summary())
        summary["source"] = source
        summary["pid"] = os.getpid()
        conn.send(("ready", summary))

        while True:
            try:
                message: Tuple = conn.recv()
            except (EOFError, OSError):
                return  # supervisor died; no one left to answer
            op = message[0]
            if op == "query":
                _, seq, request, budget_s = message
                conn.send(
                    _evaluate_reply(
                        framework, seq, request, budget_s, cache, epoch
                    )
                )
            elif op == "batch":
                # One combined reply per batch: the supervisor's send
                # combining amortises pipe overhead in both directions.
                conn.send((
                    "batch_result",
                    [
                        _evaluate_reply(
                            framework, seq, request, budget_s, cache, epoch
                        )
                        for seq, request, budget_s in message[1]
                    ],
                ))
            elif op == "ping":
                conn.send(("pong", message[1]))
            elif op == "prepare":
                _, target, raw_records = message
                ack, new_staged = _stage_for_prepare(
                    framework, spec, epoch, int(target), raw_records
                )
                if new_staged is not None:
                    staged = new_staged
                conn.send(ack)
            elif op == "commit":
                _, target = message
                target = int(target)
                if staged is not None and staged[0] == target:
                    framework = staged[1]
                    epoch = target
                    staged = None
                    conn.send(("commit_ack", target, True, "flipped"))
                    # Rewrite the snapshot *after* the ack so the flip is
                    # visible to the coordinator at pipe speed; the next
                    # restart then takes the warm rung at the new epoch.
                    if spec.snapshot_path is not None:
                        from repro.persist.snapshot import save_snapshot

                        try:
                            save_snapshot(framework, spec.snapshot_path)
                        except OSError:  # pragma: no cover
                            pass
                elif epoch >= target:
                    conn.send((
                        "commit_ack", target, True,
                        f"already at epoch {epoch}",
                    ))
                else:
                    conn.send((
                        "commit_ack", target, False,
                        f"nothing staged for epoch {target} "
                        f"(serving {epoch})",
                    ))
            elif op == "abort":
                _, target = message
                if staged is not None and staged[0] == int(target):
                    staged = None
                conn.send(("abort_ack", int(target)))
            elif op == "hang":
                # Chaos: simulate a wedged worker. The supervisor's
                # liveness deadline — not this sleep — decides its fate.
                time.sleep(float(message[1]))
            elif op == "exit":
                os._exit(int(message[1]))
            elif op == "stop":
                # Pipe FIFO order means every earlier query was already
                # answered: this *is* the drain barrier.
                if spec.snapshot_path is not None:
                    from repro.persist.snapshot import save_snapshot

                    try:
                        save_snapshot(framework, spec.snapshot_path)
                    except OSError:  # pragma: no cover
                        pass
                try:
                    conn.send(("stopped",))
                except (BrokenPipeError, OSError):  # pragma: no cover
                    pass
                return
            else:
                conn.send(
                    ("error", -1, "ValueError", f"unknown op {op!r}", epoch)
                )
    finally:
        if arena is not None:
            arena.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass
