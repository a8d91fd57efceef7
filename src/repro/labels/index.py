""":class:`LabeledDistanceIndex` — the 2-hop-label distance backend.

Answers the same :class:`repro.index.backend.DistanceBackend` surface as
the dense :class:`repro.index.DistanceIndexMatrix`, bit-identically (see
:mod:`repro.labels.builder` for why exact door-graph weights make that hold
by construction), while storing O(total label entries) instead of O(N²)
floats.

A query ``d(u, v)`` is::

    min over hubs h in L_out(u) ∩ L_in(v) of d(u,h) + d(h,v)
    → min'ed against the incremental-repair patch hubs, if any

Nearest-first scans (``doors_by_distance``) never build a distance row:
they merge the source's hubs lazily, one cursor per hub over its
inverted in-label sorted by ``(distance, node)``, so a scan that stops
after a few dozen doors touches a few dozen label entries per hub.  The
set-to-set minimum (``min_distance_between``) is one hub scatter and one
in-label sweep.  Nothing is cached: every answer reads the label arrays
as they stand.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.distance.matrix import door_graph_edges
from repro.exceptions import UnknownEntityError
from repro.labels.builder import (
    HubLabeling,
    build_labeling,
    invert_by_hub,
    materialize_row,
)
from repro.labels.hierarchy import VertexHierarchy

def _segments(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Positions of the CSR segments of ``rows``, concatenated."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    ends = np.cumsum(lengths)
    return np.arange(int(ends[-1]) if len(ends) else 0, dtype=np.int64) + (
        np.repeat(starts - (ends - lengths), lengths)
    )


@dataclass(frozen=True)
class LabelPatches:
    """Incremental-repair overlay: canonical rows through the patch hubs.

    ``door_ids`` is the **current** full ascending door set (a superset of
    the label-covered base set when doors were added).  ``fwd[k]`` holds
    d(patch_k, ·) and ``bwd[k]`` holds d(·, patch_k), both computed on the
    current graph over current indices.
    """

    door_ids: Tuple[int, ...]
    patch_ids: Tuple[int, ...]
    fwd: np.ndarray
    bwd: np.ndarray

    def memory_bytes(self) -> int:
        """Bytes of the dense patch rows."""
        return int(self.fwd.nbytes + self.bwd.nbytes)


class LabeledDistanceIndex:
    """2-hop labels + hierarchy + repair patches.

    Construct with :meth:`build` (from a distance-aware graph) or directly
    from previously serialized parts (:mod:`repro.labels.serialize`).
    """

    #: Backend name for :class:`repro.index.backend.DistanceBackend`.
    kind = "labels"

    def __init__(
        self,
        door_ids: Sequence[int],
        labeling: HubLabeling,
        hierarchy: VertexHierarchy,
        patches: Optional[LabelPatches] = None,
    ) -> None:
        self._base_door_ids: Tuple[int, ...] = tuple(door_ids)
        self._labeling = labeling
        self._hierarchy = hierarchy
        self._patches = patches

        self._door_ids: Tuple[int, ...] = (
            patches.door_ids if patches is not None else self._base_door_ids
        )
        self._index_of: Dict[int, int] = {
            door_id: i for i, door_id in enumerate(self._door_ids)
        }
        base_n = len(self._base_door_ids)
        #: base matrix index -> current matrix index (identity when
        #: unpatched; door ids ascending in both, so this is a searchsorted).
        if patches is None:
            self._base_pos = np.arange(base_n, dtype=np.int64)
        else:
            current = np.asarray(self._door_ids, dtype=np.int64)
            self._base_pos = np.searchsorted(
                current, np.asarray(self._base_door_ids, dtype=np.int64)
            ).astype(np.int64)
        #: current matrix index -> base index, -1 for doors newer than the
        #: labeling.
        self._current_to_base = np.full(len(self._door_ids), -1, dtype=np.int64)
        self._current_to_base[self._base_pos] = np.arange(
            base_n, dtype=np.int64
        )

        inv_indptr, inv_nodes, inv_dists = invert_by_hub(
            base_n, labeling.in_indptr, labeling.in_hubs, labeling.in_dists
        )
        if patches is not None:
            # Renumber into current indices; the map is monotone, so each
            # hub segment stays sorted by (distance, node).
            inv_nodes = self._base_pos[inv_nodes]
        self._inv_in = (inv_indptr, inv_nodes, inv_dists)
        # Scans read the arrays element-wise through memoryviews: no list
        # copies, and in-place writes (fault injection) show at once.
        self._out_views = tuple(
            memoryview(a)
            for a in (labeling.out_indptr, labeling.out_hubs, labeling.out_dists)
        )
        self._inv_views = tuple(memoryview(a) for a in self._inv_in)
        # Patch hub k's cursor walks its finite d(patch_k, ·) in
        # (distance, index) order.
        self._patch_views: Tuple[Tuple[memoryview, memoryview, int], ...] = ()
        if patches is not None:
            order = np.argsort(patches.fwd, axis=1, kind="stable")
            ranked = np.take_along_axis(patches.fwd, order, axis=1)
            self._patch_order = (order, ranked)
            self._patch_views = tuple(
                (
                    memoryview(order[k]),
                    memoryview(ranked[k]),
                    int(np.isfinite(ranked[k]).sum()),
                )
                for k in range(len(patches.patch_ids))
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, graph) -> "LabeledDistanceIndex":
        """Build labels for a :class:`DistanceAwareGraph` (same edge
        extraction as the dense matrix builder)."""
        door_ids = graph.space.topology.door_ids
        edges = door_graph_edges(graph)
        labeling, hierarchy = build_labeling(door_ids, edges)
        return cls(door_ids, labeling, hierarchy)

    def with_patches(self, patches: Optional[LabelPatches]) -> "LabeledDistanceIndex":
        """A sibling index sharing this one's labels but carrying a
        different repair overlay (used by :mod:`repro.labels.repair`)."""
        return LabeledDistanceIndex(
            self._base_door_ids,
            self._labeling,
            self._hierarchy,
            patches=patches,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def door_ids(self) -> Tuple[int, ...]:
        """Ascending door ids (including repair-added doors)."""
        return self._door_ids

    @property
    def size(self) -> int:
        """Number of doors N."""
        return len(self._door_ids)

    @property
    def labeling(self) -> HubLabeling:
        return self._labeling

    @property
    def hierarchy(self) -> VertexHierarchy:
        return self._hierarchy

    @property
    def patches(self) -> Optional[LabelPatches]:
        return self._patches

    @property
    def patch_count(self) -> int:
        return 0 if self._patches is None else len(self._patches.patch_ids)

    # ------------------------------------------------------------------
    # DistanceBackend surface
    # ------------------------------------------------------------------
    def distance(self, from_door: int, to_door: int) -> float:
        """Minimum walking distance by door id (bit-identical to M_d2d)."""
        try:
            i = self._index_of[from_door]
            j = self._index_of[to_door]
        except KeyError as exc:
            raise UnknownEntityError("door", exc.args[0]) from None
        if i == j:
            return 0.0
        best = math.inf
        bi = int(self._current_to_base[i])
        bj = int(self._current_to_base[j])
        if bi >= 0 and bj >= 0:
            best = self._pair_query(bi, bj)
        if self._patches is not None:
            patch = float(
                np.min(self._patches.bwd[:, i] + self._patches.fwd[:, j])
            )
            best = min(best, patch)
        return float(best)

    def _pair_query(self, bi: int, bj: int) -> float:
        """2-hop intersection d(base_i, base_j) over the base labels."""
        lab = self._labeling
        hubs_u = lab.out_hubs[lab.out_indptr[bi] : lab.out_indptr[bi + 1]]
        hubs_v = lab.in_hubs[lab.in_indptr[bj] : lab.in_indptr[bj + 1]]
        common, iu, iv = np.intersect1d(
            hubs_u, hubs_v, assume_unique=True, return_indices=True
        )
        if not len(common):
            return math.inf
        d_u = lab.out_dists[lab.out_indptr[bi] : lab.out_indptr[bi + 1]][iu]
        d_v = lab.in_dists[lab.in_indptr[bj] : lab.in_indptr[bj + 1]][iv]
        return float(np.min(d_u + d_v))

    def doors_by_distance(
        self, from_door: int, max_distance: Optional[float] = None
    ) -> Iterator[Tuple[int, float]]:
        """Yield ``(door_id, distance)`` nearest-first — the dense M_idx
        scan order (stable argsort of an identical row), merged lazily
        from the labels.

        One cursor per hub g in L_out(u) walks g's inverted in-label
        segment, already sorted by ``(d(g,v), v)``; keyed
        ``(d(u,g) + d(g,v), v)`` the cursors merge in a heap, and float
        addition is monotone, so each door's first pop carries its minimum
        over hubs.  Patch hubs are extra cursors.  ``u`` itself sits at
        exactly 0.0, as in the matrix.  Doors poisoned by a NaN label
        entry come last, in index order, and only when no door is
        unreachable — where a stable argsort puts NaN after inf.
        """
        i = self._resolve(from_door)
        heap, poisoned = self._scan_heap(i)
        done = set(poisoned)
        done.add(i)
        limit = math.inf if max_distance is None else max_distance
        ids = self._door_ids
        yielded = 0
        while heap:
            key, v, sid, pos, stop, offset, nodes, dists = heap[0]
            pos += 1
            while pos < stop and nodes[pos] in done:
                pos += 1
            if pos < stop:
                heapq.heapreplace(
                    heap,
                    (
                        offset + dists[pos], nodes[pos], sid, pos, stop,
                        offset, nodes, dists,
                    ),
                )
            else:
                heapq.heappop(heap)
            if sid >= 0:
                if v in done:
                    continue
                done.add(v)
            # Only a live door may end the scan: a yielded or poisoned
            # door's leftover cursor says nothing about the rest.
            if key > limit:
                return
            yielded += 1
            yield ids[v], key
        if poisoned and yielded + len(poisoned) == len(ids):
            for v in sorted(poisoned):
                yield ids[v], math.nan

    def _scan_heap(self, i: int) -> Tuple[List[tuple], Set[int]]:
        """The cursor heap of a scan from current index ``i``, and the
        doors a NaN hub distance d(u, g) poisons.

        A cursor is ``(key, door, sid, pos, stop, offset, nodes, dists)``
        with ``key = offset + dists[pos]`` for ``door = nodes[pos]``;
        ``sid`` is unique per cursor (so heap comparisons never reach the
        arrays), and -1 marks ``u``'s own entry, which has no successor.
        """
        heap: List[tuple] = []
        poisoned: Set[int] = set()
        out_indptr, out_hubs, out_dists = self._out_views
        bi = int(self._current_to_base[i])
        if bi >= 0:
            inv_indptr, inv_nodes, inv_dists = self._inv_views
            for k in range(out_indptr[bi], out_indptr[bi + 1]):
                g = out_hubs[k]
                offset = out_dists[k]
                pos, stop = inv_indptr[g], inv_indptr[g + 1]
                if offset != offset:
                    poisoned.update(inv_nodes[pos:stop])
                elif pos < stop:
                    heap.append((
                        offset + inv_dists[pos], inv_nodes[pos], k, pos, stop,
                        offset, inv_nodes, inv_dists,
                    ))
            # d(u, u) is pinned to 0.0 whatever the hub sums say.
            poisoned.discard(i)
        if self._patches is not None:
            sid = len(out_hubs)
            bwd = self._patches.bwd
            for k, (nodes, dists, stop) in enumerate(self._patch_views):
                offset = float(bwd[k, i])
                if stop and offset < math.inf:
                    heap.append((
                        offset + dists[0], nodes[0], sid + k, 0, stop,
                        offset, nodes, dists,
                    ))
        heap.append((0.0, i, -1, 0, 0, 0.0, None, None))
        heapq.heapify(heap)
        return heap, poisoned

    def doors_unsorted(self, from_door: int) -> Iterator[Tuple[int, float]]:
        """Yield reachable ``(door_id, distance)`` in door-id order — the
        no-index baseline, which reads a whole row built for this call."""
        row = self._dense_row(self._resolve(from_door))
        for j, door_id in enumerate(self._door_ids):
            dist = float(row[j])
            if math.isinf(dist):
                continue
            yield door_id, dist

    def nearest_doors(
        self, from_door: int, k: int
    ) -> Tuple[Tuple[int, float], ...]:
        """The k nearest doors, nearest first."""
        result = []
        for door_id, dist in self.doors_by_distance(from_door):
            result.append((door_id, dist))
            if len(result) == k:
                break
        return tuple(result)

    def min_distance_between(
        self, from_doors: Sequence[int], to_doors: Sequence[int]
    ) -> float:
        """Set-to-set lower bound (equals the dense submatrix minimum).

        Scatters ``min over s of d(s,h)`` into a hub array, then scans each
        target's in-label against it — exact because float addition is
        monotone, at O(|S|·L + |T|·L).  A source label holding a negative or
        NaN entry (a corrupted index) falls back to folding one row per
        source, which keeps the matrix's pinned 0.0 diagonal and NaN
        behaviour.
        """
        try:
            rows = [self._index_of[d] for d in from_doors]
            cols = [self._index_of[d] for d in to_doors]
        except KeyError as exc:
            raise UnknownEntityError("door", exc.args[0]) from None
        if not rows or not cols:
            return math.inf
        best = self._label_minimum(rows, cols)
        if best is None:
            col_idx = np.asarray(cols, dtype=np.int64)
            best = math.inf
            for i in rows:
                best = min(best, float(self._dense_row(i)[col_idx].min()))
        return best

    def _label_minimum(
        self, rows: Sequence[int], cols: Sequence[int]
    ) -> Optional[float]:
        """The hub-merge minimum over ``rows × cols``, or ``None`` when a
        source's L_out holds a negative or NaN distance (fault injection
        poisons L_out only)."""
        lab = self._labeling
        best = 0.0 if not set(rows).isdisjoint(cols) else math.inf
        sources = self._current_to_base[np.asarray(rows, dtype=np.int64)]
        targets = self._current_to_base[np.asarray(cols, dtype=np.int64)]
        out_at = _segments(lab.out_indptr, sources[sources >= 0])
        in_at = _segments(lab.in_indptr, targets[targets >= 0])
        out_d = lab.out_dists[out_at]
        if not (out_d >= 0).all():
            return None
        if len(out_d) and len(in_at):
            hub_min = np.full(len(self._base_door_ids), np.inf)
            np.minimum.at(hub_min, lab.out_hubs[out_at], out_d)
            best = min(
                best,
                float(np.min(hub_min[lab.in_hubs[in_at]] + lab.in_dists[in_at])),
            )
        if self._patches is not None:
            to_patch = self._patches.bwd[:, rows].min(axis=1)
            from_patch = self._patches.fwd[:, cols].min(axis=1)
            best = min(best, float(np.min(to_patch + from_patch)))
        return best

    def _resolve(self, door_id: int) -> int:
        try:
            return self._index_of[door_id]
        except KeyError:
            raise UnknownEntityError("door", door_id) from None

    def _dense_row(self, i: int) -> np.ndarray:
        """The full distance row d(u, ·) for current index ``i``, built for
        one call (only the no-index baseline and the corrupted-label
        fallback read whole rows)."""
        bi = int(self._current_to_base[i])
        if bi < 0:
            row = np.full(len(self._door_ids), np.inf)
        else:
            lab = self._labeling
            row = materialize_row(
                bi,
                len(self._door_ids),
                lab.out_indptr,
                lab.out_hubs,
                lab.out_dists,
                *self._inv_in,
            )
        row[i] = 0.0
        if self._patches is not None:
            d_to_patch = self._patches.bwd[:, i]
            for k in range(len(self._patches.patch_ids)):
                row = np.minimum(row, d_to_patch[k] + self._patches.fwd[k])
        return row

    # ------------------------------------------------------------------
    # Accounting + integrity
    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Resident bytes: labels + hierarchy + patches."""
        report = self.memory_report()
        return int(sum(v for k, v in report.items() if k.endswith("_bytes")))

    def memory_report(self) -> dict:
        """Per-component byte accounting."""
        lab = self._labeling
        label_bytes = int(
            lab.out_indptr.nbytes
            + lab.out_hubs.nbytes
            + lab.out_dists.nbytes
            + lab.in_indptr.nbytes
            + lab.in_hubs.nbytes
            + lab.in_dists.nbytes
            + sum(a.nbytes for a in self._inv_in)
        )
        hierarchy_bytes = int(
            self._hierarchy.levels.nbytes + self._hierarchy.order.nbytes
        )
        patch_bytes = 0
        if self._patches is not None:
            patch_bytes = self._patches.memory_bytes() + int(
                sum(a.nbytes for a in self._patch_order)
            )
        return {
            "labels_bytes": label_bytes,
            "hierarchy_bytes": hierarchy_bytes,
            "patches_bytes": patch_bytes,
            "label_entries": self._labeling.entry_count,
            "patch_hubs": self.patch_count,
        }

    def self_check(self) -> List[str]:
        """Structural invariants, as human-readable issue strings.

        Complements :func:`repro.runtime.check_index_integrity`'s dense
        checks: label CSR well-formedness, finite non-negative distances,
        zero self-distance on a deterministic door sample, door-id order.
        """
        issues: List[str] = []
        lab = self._labeling
        n = len(self._base_door_ids)
        for name, indptr, hubs, dists in (
            ("out", lab.out_indptr, lab.out_hubs, lab.out_dists),
            ("in", lab.in_indptr, lab.in_hubs, lab.in_dists),
        ):
            if len(indptr) != n + 1 or (np.diff(indptr) < 0).any():
                issues.append(f"L_{name} indptr is not monotone over {n} doors")
                continue
            if int(indptr[-1]) != len(hubs) or len(hubs) != len(dists):
                issues.append(f"L_{name} array lengths disagree with indptr")
                continue
            if np.isnan(dists).any():
                issues.append(f"L_{name} contains NaN distances")
            if (dists < 0).any():
                issues.append(f"L_{name} contains negative distances")
            if len(hubs) and (
                (hubs < 0).any() or (hubs >= n).any()
            ):
                issues.append(f"L_{name} references out-of-range hubs")
        if self._patches is not None:
            if np.isnan(self._patches.fwd).any() or np.isnan(
                self._patches.bwd
            ).any():
                issues.append("patch rows contain NaN")
        ids = np.asarray(self._door_ids, dtype=np.int64)
        if len(ids) > 1 and (np.diff(ids) <= 0).any():
            issues.append("door ids are not strictly ascending")
        if not issues:
            for door_id in self._door_ids[: min(64, len(self._door_ids))]:
                if self.distance(door_id, door_id) != 0.0:
                    issues.append(
                        f"self-distance of door {door_id} is nonzero"
                    )
                    break
        return issues
