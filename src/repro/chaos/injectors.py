"""Chaos-only injectors, complementing :mod:`repro.runtime.faults`.

The runtime harness covers *state* faults (corrupt cells, dropped records,
index loss, bit rot); campaigns also need *behavioural* faults:

* :func:`install_latency` — every distance-index call (and every scan
  yield) stalls a fixed number of milliseconds, the "index on cold
  storage" scenario that exercises deadline budgets and the breaker's
  `DeadlineExceededError` path without touching correctness;
* :func:`apply_topology_action` — scripted ``add_door`` /
  ``remove_door`` mutations through a
  :class:`~repro.persist.wal.WalRecorder`, so mid-campaign topology
  changes are durable exactly like production mutations (and can be
  crashed mid-append by an armed crash point).

Latency injection deliberately perturbs only *timing*: campaign incident
digests exclude latency, so a plan with and without the injector produces
the same incident sequence.
"""

from __future__ import annotations

import time

from repro.geometry import Point, Segment
from repro.index.framework import IndexFramework
from repro.persist.wal import WalRecorder
from repro.runtime.faults import FaultHandle, _DistanceIndexProxy


class LatencyDistanceIndex(_DistanceIndexProxy):
    """A distance-index proxy stalling every lookup (and every scan yield)
    by ``per_call_ms``; everything else delegates to the real index."""

    def __init__(self, inner, per_call_ms: float) -> None:
        if per_call_ms < 0:
            raise ValueError(f"per_call_ms must be >= 0, got {per_call_ms}")
        super().__init__(inner)
        self._per_call_s = per_call_ms / 1000.0

    def _on_lookup(self) -> None:
        if self._per_call_s > 0:
            time.sleep(self._per_call_s)


def install_latency(
    framework: IndexFramework, per_call_ms: float
) -> FaultHandle:
    """Stall every distance-index call by ``per_call_ms`` milliseconds."""
    original = framework.distance_index
    framework.distance_index = LatencyDistanceIndex(original, per_call_ms)

    def restore() -> None:
        framework.distance_index = original

    return FaultHandle(
        f"install_latency(per_call_ms={per_call_ms})", _undo=restore
    )


def _decode_geometry(payload: dict):
    """Door geometry from its JSON form (same shape the WAL uses)."""
    if "point" in payload:
        x, y, floor = payload["point"]
        return Point(float(x), float(y), int(floor))
    start, end = payload["segment"]
    return Segment(
        Point(float(start[0]), float(start[1]), int(start[2])),
        Point(float(end[0]), float(end[1]), int(end[2])),
    )


def apply_topology_action(
    recorder: WalRecorder, action: str, params: dict
) -> None:
    """Run one scripted topology mutation through the WAL recorder.

    Raises whatever the recorder raises — including
    :class:`~repro.exceptions.InjectedCrashError` when a crash point is
    armed inside the WAL append, which is exactly the scenario campaign
    restarts recover from.
    """
    if action == "remove_door":
        recorder.remove_door(int(params["id"]))
    elif action == "add_door":
        recorder.add_door(
            int(params["id"]),
            _decode_geometry(params["geometry"]),
            connects=(int(params["connects"][0]), int(params["connects"][1])),
            one_way=bool(params.get("one_way", False)),
            name=params.get("name", ""),
        )
    else:
        raise ValueError(f"unknown topology action {action!r}")
