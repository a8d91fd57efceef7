""":class:`LabeledDistanceIndex` — the 2-hop-label distance backend.

Answers the same :class:`repro.index.backend.DistanceBackend` surface as
the dense :class:`repro.index.DistanceIndexMatrix`, bit-identically (see
:mod:`repro.labels.builder` for why exact door-graph weights make that hold
by construction), while storing O(total label entries) instead of O(N²)
floats.

A query ``d(u, v)`` is::

    min over hubs h in L_out(u) ∩ L_in(v) of d(u,h) + d(h,v)
    → min'ed against the incremental-repair patch hubs, if any

Nearest-first scans (``doors_by_distance``) materialise one full distance
row per source door — an O(label entries touching u) vectorised join —
and keep recently used rows in a small locked LRU so repeated scans from
the same doors (the common query pattern: algorithms expand from the few
doors of the host partition) stay cheap.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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

#: Distance rows kept resident per index (each row is N floats plus its
#: stable argsort order, so the cache is bounded at ``2 × 16N × this``).
ROW_CACHE_LIMIT = 64


@dataclass(frozen=True)
class EdgeArrays:
    """Directed door-graph edges by door id, as three parallel arrays."""

    src: np.ndarray
    dst: np.ndarray
    w: np.ndarray

    @classmethod
    def of(cls, edges: Sequence[Tuple[int, int, float]]) -> "EdgeArrays":
        """Pack ``(from_door, to_door, weight)`` triples."""
        return cls(
            np.array([e[0] for e in edges], dtype=np.int64),
            np.array([e[1] for e in edges], dtype=np.int64),
            np.array([e[2] for e in edges], dtype=np.float64),
        )

    @property
    def nbytes(self) -> int:
        return int(self.src.nbytes + self.dst.nbytes + self.w.nbytes)


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
        edges: EdgeArrays,
        patches: Optional[LabelPatches] = None,
    ) -> None:
        self._base_door_ids: Tuple[int, ...] = tuple(door_ids)
        self._labeling = labeling
        self._hierarchy = hierarchy
        #: Door graph at label-build time, by door id — the baseline
        #: incremental repair diffs topology mutations against.
        self._base_edges = edges
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

        self._inv_in = invert_by_hub(
            base_n, labeling.in_indptr, labeling.in_hubs, labeling.in_dists
        )
        self._lock = threading.Lock()
        self._row_cache: "OrderedDict[int, Tuple[np.ndarray, np.ndarray]]" = (
            OrderedDict()
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
        return cls(door_ids, labeling, hierarchy, EdgeArrays.of(edges))

    def with_patches(self, patches: Optional[LabelPatches]) -> "LabeledDistanceIndex":
        """A sibling index sharing this one's labels but carrying a
        different repair overlay (used by :mod:`repro.labels.repair`)."""
        return LabeledDistanceIndex(
            self._base_door_ids,
            self._labeling,
            self._hierarchy,
            self._base_edges,
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
    def base_edges(self) -> EdgeArrays:
        return self._base_edges

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
        """Yield ``(door_id, distance)`` nearest-first — same ordering as
        the dense M_idx scan (stable argsort of an identical row)."""
        row, order = self._row(self._resolve(from_door))
        ids = self._door_ids
        for j in order:
            dist = float(row[j])
            if math.isinf(dist):
                break
            if max_distance is not None and dist > max_distance:
                break
            yield ids[j], dist

    def doors_unsorted(self, from_door: int) -> Iterator[Tuple[int, float]]:
        """Yield reachable ``(door_id, distance)`` in door-id order."""
        row, _ = self._row(self._resolve(from_door))
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
        """Set-to-set lower bound (equals the dense submatrix minimum)."""
        try:
            rows = [self._index_of[d] for d in from_doors]
            cols = [self._index_of[d] for d in to_doors]
        except KeyError as exc:
            raise UnknownEntityError("door", exc.args[0]) from None
        if not rows or not cols:
            return math.inf
        col_idx = np.asarray(cols, dtype=np.int64)
        best = math.inf
        for i in rows:
            row, _ = self._row(i)
            best = min(best, float(row[col_idx].min()))
        return best

    # ------------------------------------------------------------------
    # Row materialisation + cache
    # ------------------------------------------------------------------
    def _resolve(self, door_id: int) -> int:
        try:
            return self._index_of[door_id]
        except KeyError:
            raise UnknownEntityError("door", door_id) from None

    def _row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """The full (distances, stable scan order) pair for current index
        ``i``, through the LRU."""
        with self._lock:
            cached = self._row_cache.get(i)
            if cached is not None:
                self._row_cache.move_to_end(i)
                return cached
        # Materialise outside the lock: rows are deterministic, so a racing
        # duplicate computation is wasted work, never wrong data.
        row = self._materialize(i)
        order = np.argsort(row, kind="stable")
        entry = (row, order)
        with self._lock:
            self._row_cache[i] = entry
            self._row_cache.move_to_end(i)
            while len(self._row_cache) > ROW_CACHE_LIMIT:
                self._row_cache.popitem(last=False)
        return entry

    def _materialize(self, i: int) -> np.ndarray:
        n = len(self._door_ids)
        row = np.full(n, np.inf)
        bi = int(self._current_to_base[i])
        if bi >= 0:
            lab = self._labeling
            base_row = materialize_row(
                bi,
                len(self._base_door_ids),
                lab.out_indptr,
                lab.out_hubs,
                lab.out_dists,
                *self._inv_in,
            )
            row[self._base_pos] = base_row
        row[i] = 0.0
        if self._patches is not None:
            d_to_patch = self._patches.bwd[:, i]
            for k in range(len(self._patches.patch_ids)):
                row = np.minimum(row, d_to_patch[k] + self._patches.fwd[k])
        return row

    def drop_row_cache(self) -> None:
        """Discard every cached distance row.

        Fault injection mutates the label arrays in place; cached rows
        materialised before the mutation would otherwise keep serving the
        pre-fault (or pre-undo) values.
        """
        with self._lock:
            self._row_cache.clear()

    # ------------------------------------------------------------------
    # Accounting + integrity
    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Resident bytes: labels + hierarchy + base edges + patches + the
        current row cache."""
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
        edge_bytes = self._base_edges.nbytes
        patch_bytes = (
            0 if self._patches is None else self._patches.memory_bytes()
        )
        with self._lock:
            cache_bytes = int(
                sum(
                    row.nbytes + order.nbytes
                    for row, order in self._row_cache.values()
                )
            )
        return {
            "labels_bytes": label_bytes,
            "hierarchy_bytes": hierarchy_bytes,
            "edges_bytes": edge_bytes,
            "patches_bytes": patch_bytes,
            "row_cache_bytes": cache_bytes,
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
