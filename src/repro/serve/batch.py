"""Shared-work batched execution of grouped queries.

Sequential serving re-expands the same §III-C/§IV structures for every
request: each range / kNN query walks its host partition's M_idx rows from
scratch, and each pt2pt query re-runs the Algorithm 2/3 door expansions
from its source doors.  This module amortises that work across a batch:

* **Range / kNN groups** (same host partition) share one lazily
  materialised M_idx row prefix per door (:class:`SharedDoorScans`): the
  sorted scan each query performs is a prefix of the same sequence, so the
  row is walked once, as deep as the deepest query in the group needs.
* **pt2pt groups** (same source position) share the per-source-door
  Dijkstra expansions (:func:`batched_pt2pt_distances`): a multi-target
  generalisation of the paper's Algorithm 3 runs one pruned, bounded
  expansion per source door for the whole group.  Singleton pt2pt groups
  go straight through Algorithm 4
  (:func:`~repro.distance.point_to_point.pt2pt_distance`), so batching is
  never slower than the sequential engine.

Range / kNN groups run the one implementation of Algorithms 5 / 6
(:func:`~repro.queries.range_query.range_query` /
:func:`~repro.queries.knn_query.knn_query`) with the shared scans as their
``door_scans`` source, so a batched answer is the sequential answer — a
property the test suite asserts bit-for-bit on both distance backends.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.distance.door_to_door import settle_doors
from repro.distance.point_to_point import pt2pt_distance
from repro.exceptions import ReproError
from repro.geometry import Point
from repro.index.backend import DistanceBackend
from repro.index.framework import IndexFramework
from repro.model.builder import IndoorSpace
from repro.queries.knn_query import knn_query
from repro.queries.range_query import range_query
from repro.serve.requests import QueryKind, QueryRequest


class SharedDoorScans:
    """Per-batch memo of sorted door-scan row prefixes.

    Each row is pulled from the distance backend's ``doors_by_distance``
    (M_idx or the labels' sorted rows) exactly once, unbounded, and only as
    deep as the deepest consumer needs; every query in the batch then
    iterates the shared prefix.  Not thread-safe: one instance belongs to
    one batch executed by one worker.
    """

    def __init__(self, distance_index: DistanceBackend) -> None:
        self._index = distance_index
        # door id -> (materialised prefix, the backend scan feeding it)
        self._rows: Dict[
            int, Tuple[List[Tuple[int, float]], Iterator[Tuple[int, float]]]
        ] = {}
        self.rows_opened = 0
        self.rows_reused = 0

    def doors_by_distance(
        self, door_id: int, max_distance: Optional[float] = None
    ) -> Iterator[Tuple[int, float]]:
        """Yield ``(door_id, distance)`` nearest-first from the shared row,
        stopping exactly where the backend's ``doors_by_distance(door_id,
        max_distance)`` would."""
        row = self._rows.get(door_id)
        if row is None:
            row = ([], self._index.doors_by_distance(door_id))
            self._rows[door_id] = row
            self.rows_opened += 1
        else:
            self.rows_reused += 1
        entries, source = row
        i = 0
        while True:
            if i == len(entries):
                try:
                    entry = next(source, None)
                except Exception:
                    # A scan that died mid-row (index lost or corrupted)
                    # must not be shared as a short, "exhausted" row.
                    self._rows.pop(door_id, None)
                    raise
                if entry is None:
                    return  # the row is exhausted
                entries.append(entry)
            entry = entries[i]
            if max_distance is not None and entry[1] > max_distance:
                return
            yield entry
            i += 1


def batched_pt2pt_distances(
    space: IndoorSpace, source: Point, targets: Sequence[Point]
) -> List[float]:
    """Exact pt2pt distances from one source to many targets, sharing the
    per-source-door expansions.

    A multi-target generalisation of the paper's Algorithm 3: one pruned,
    bounded Dijkstra expansion per source door serves *every* target in
    the group.  Each target keeps its own running best; a target door
    stays interesting only while it can still improve some target, and
    the expansion stops as soon as no door can.  For a single target this
    degenerates to Algorithm 3 itself, so batching never costs more than
    sequential serving.  Returns one distance per target, in order
    (``inf`` for unreachable targets).
    """
    vs = space.require_host_partition(source)
    graph = space.distance_graph
    topology = space.topology

    # Per-target setup: enterable doors, exit distances, direct candidate.
    best: List[float] = []
    target_partitions: set = set()
    wanted: Dict[int, List[Tuple[int, float]]] = {}
    for index, target in enumerate(targets):
        vt = space.require_host_partition(target)
        target_partitions.add(vt.partition_id)
        if vs.partition_id == vt.partition_id:
            best.append(vs.intra_distance(source, target))
        else:
            best.append(math.inf)
        for dt in sorted(topology.enterable_doors(vt.partition_id)):
            d2 = space.dist_v(target, dt, vt)
            if not math.isinf(d2):
                wanted.setdefault(dt, []).append((index, d2))

    # Source doors with Algorithm 3's dead-end pruning, generalised to the
    # group: a door is prunable when its only enterable partition hosts no
    # target and cannot be left except back through the same door.
    doors_s: List[int] = []
    for ds in sorted(topology.leaveable_doors(vs.partition_id)):
        other = topology.enterable_partitions(ds) - {vs.partition_id}
        if len(other) == 1:
            neighbor = next(iter(other))
            if (
                neighbor not in target_partitions
                and topology.leaveable_doors(neighbor) == frozenset({ds})
            ):
                continue
        doors_s.append(ds)

    for ds in doors_s:
        d1 = space.dist_v(source, ds, vs)
        if math.isinf(d1):
            continue
        # A target door is pending while it can still improve some target.
        pending: Set[int] = {
            dt
            for dt, wants in wanted.items()
            if any(d1 + d2 < best[index] for index, d2 in wants)
        }
        if not pending:
            continue

        for d, current in settle_doors(graph, ds, {}, set()):
            if current in pending:
                pending.discard(current)
                for index, d2 in wanted[current]:
                    candidate = d1 + d + d2
                    if candidate < best[index]:
                        best[index] = candidate
            # Everything left on the heap settles at >= d, so a door that
            # cannot beat any target's best from depth d never will.
            pending = {
                dt
                for dt in pending
                if any(
                    d1 + d + d2 < best[index] for index, d2 in wanted[dt]
                )
            }
            if not pending:
                break
    return best


@dataclass(frozen=True)
class BatchGroup:
    """Requests that can share one work substrate.

    Range / kNN requests group by host partition (they walk the same
    M_idx rows); pt2pt requests group by exact source position (they
    share the same source-door expansions).
    """

    kind: QueryKind
    key: Tuple
    requests: Tuple[QueryRequest, ...]

    @property
    def shared(self) -> bool:
        """True when the group actually amortises work (2+ requests)."""
        return len(self.requests) > 1


def plan_batches(
    space: IndoorSpace, requests: Iterable[QueryRequest]
) -> List[BatchGroup]:
    """Partition ``requests`` into shared-work groups, preserving order.

    A request whose position cannot be located (no host partition) is
    placed in a singleton group so the error surfaces on execution for
    that request alone instead of failing its neighbours.
    """
    buckets: "OrderedDict[Tuple, List[QueryRequest]]" = OrderedDict()
    for request in requests:
        if request.kind is QueryKind.PT2PT:
            p = request.position
            key: Tuple = (request.kind, p.x, p.y, p.floor)
        else:
            try:
                host = space.require_host_partition(request.position)
            except ReproError:
                key = (request.kind, "solo", request.request_id)
            else:
                key = (request.kind, host.partition_id)
        buckets.setdefault(key, []).append(request)
    return [
        BatchGroup(key[0], key, tuple(group))
        for key, group in buckets.items()
    ]


def execute_group(
    framework: IndexFramework, group: BatchGroup
) -> List[Tuple[QueryRequest, Any]]:
    """Run one group over its shared substrate.

    Returns ``(request, value)`` pairs in request order; a request that
    failed carries its exception as ``value`` (so one bad request never
    poisons the rest of the group).
    """
    out: List[Tuple[QueryRequest, Any]] = []
    if group.kind is QueryKind.PT2PT:
        source = group.requests[0].position
        resolved: Dict[int, Any] = {}
        valid: List[QueryRequest] = []
        for request in group.requests:
            try:
                framework.space.require_host_partition(request.target)
            except ReproError as exc:
                resolved[request.request_id] = exc
            else:
                valid.append(request)
        if valid:
            try:
                # A single pair has no sharing to exploit: Algorithm 4
                # (memoised) is the fastest single-pair path, and it is
                # what the sequential engine would run.
                values = (
                    [pt2pt_distance(framework.space, source, valid[0].target)]
                    if len(valid) == 1
                    else batched_pt2pt_distances(
                        framework.space,
                        source,
                        [request.target for request in valid],
                    )
                )
            except ReproError as exc:
                for request in valid:
                    resolved[request.request_id] = exc
            else:
                for request, value in zip(valid, values):
                    resolved[request.request_id] = value
        return [
            (request, resolved[request.request_id])
            for request in group.requests
        ]

    scans = SharedDoorScans(framework.distance_index)
    for request in group.requests:
        try:
            if group.kind is QueryKind.RANGE:
                value: Any = range_query(
                    framework, request.position, request.radius,
                    door_scans=scans,
                )
            else:
                value = knn_query(
                    framework, request.position, request.k, door_scans=scans
                )
        except ReproError as exc:
            value = exc
        out.append((request, value))
    return out
