"""2-hop label construction: pruned per-hub Dijkstra in hierarchy order.

The construction is pruned landmark labeling specialised to the directed
door graph (TopCom, arXiv:1602.01537), with the hub order supplied by the
independent-set hierarchy of :mod:`repro.labels.hierarchy` (IS-LABEL,
arXiv:1211.2367):

* Hubs are processed top-of-hierarchy first.  For hub *h* a forward
  Dijkstra yields d(h, ·) and a backward Dijkstra (on the transposed
  graph) yields d(·, h) — both via the same
  :func:`scipy.sparse.csgraph.dijkstra` routine the dense M_d2d builder
  uses.
* An entry ``(h, d(h, v))`` joins L_in(v) only when the labels built so
  far cannot already answer d(h, v) at least as well (the standard PLL
  pruning test, evaluated vectorised over all targets at once); the
  backward side is symmetric for L_out.

The label answers equal the dense matrix bit for bit by construction:
door-graph weights are multiples of
:data:`repro.model.distance_graph.WEIGHT_QUANTUM`, so a hub sum
d(u,h) + d(h,v) and the matrix's Dijkstra fold along the same shortest
path are both exact, and therefore the same float.  Exactness is also
what makes the pruning test sound: a tie with an earlier hub prunes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.sparse.csgraph import dijkstra

from repro.distance.matrix import door_graph_csr
from repro.labels.hierarchy import VertexHierarchy, build_hierarchy


@dataclass(frozen=True)
class HubLabeling:
    """The finished label arrays for one door graph.

    Label sets are CSR-shaped over matrix indices: node ``v``'s L_in
    entries are ``in_hubs[in_indptr[v]:in_indptr[v+1]]`` with matching
    distances, hubs ascending within each segment.
    """

    out_indptr: np.ndarray
    out_hubs: np.ndarray
    out_dists: np.ndarray
    in_indptr: np.ndarray
    in_hubs: np.ndarray
    in_dists: np.ndarray
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def entry_count(self) -> int:
        """Total label entries across both directions."""
        return int(len(self.out_hubs) + len(self.in_hubs))

    def memory_bytes(self) -> int:
        """Total bytes of the label arrays."""
        arrays = (
            self.out_indptr,
            self.out_hubs,
            self.out_dists,
            self.in_indptr,
            self.in_hubs,
            self.in_dists,
        )
        return int(sum(a.nbytes for a in arrays))


def _csr_from_lists(
    n: int, labels: List[List[Tuple[int, float]]]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pack per-node ``(hub, dist)`` lists into CSR arrays, hubs ascending
    within each node segment (entries arrive in hub-processing order)."""
    counts = np.fromiter((len(lst) for lst in labels), dtype=np.int64, count=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    hubs = np.empty(int(indptr[-1]), dtype=np.int64)
    dists = np.empty(int(indptr[-1]), dtype=np.float64)
    for v, entries in enumerate(labels):
        if not entries:
            continue
        entries = sorted(entries)  # by hub index; hubs are unique per node
        start = int(indptr[v])
        for k, (hub, dist) in enumerate(entries):
            hubs[start + k] = hub
            dists[start + k] = dist
    return indptr, hubs, dists


def invert_by_hub(
    n: int, indptr: np.ndarray, hubs: np.ndarray, dists: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hub-inverted view of a label CSR: for each hub, the nodes carrying
    it and their distances.  Deterministically derived (stable sort), so it
    is rebuilt on snapshot load rather than serialized."""
    nodes = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    order = np.argsort(hubs, kind="stable")
    sorted_hubs = hubs[order]
    inv_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(sorted_hubs, minlength=n), out=inv_indptr[1:])
    return inv_indptr, nodes[order], dists[order]


def materialize_row(
    u: int,
    n: int,
    out_indptr: np.ndarray,
    out_hubs: np.ndarray,
    out_dists: np.ndarray,
    inv_in_indptr: np.ndarray,
    inv_in_nodes: np.ndarray,
    inv_in_dists: np.ndarray,
) -> np.ndarray:
    """The full label-answer row d(u, ·): for every hub g in L_out(u), relax
    d(u,g) + d(g,v) over the nodes v carrying g in L_in(v)."""
    row = np.full(n, np.inf)
    for k in range(int(out_indptr[u]), int(out_indptr[u + 1])):
        g = int(out_hubs[k])
        d_ug = out_dists[k]
        start, stop = int(inv_in_indptr[g]), int(inv_in_indptr[g + 1])
        targets = inv_in_nodes[start:stop]
        # Targets are unique per hub, so fancy assignment is safe (and much
        # faster than np.minimum.at).
        row[targets] = np.minimum(row[targets], d_ug + inv_in_dists[start:stop])
    return row


def build_labeling(
    door_ids: Sequence[int],
    edges: Sequence[Tuple[int, int, float]],
    hierarchy: VertexHierarchy = None,
) -> Tuple[HubLabeling, VertexHierarchy]:
    """Construct pruned 2-hop labels for a door graph."""
    ids = tuple(door_ids)
    n = len(ids)
    if hierarchy is None:
        hierarchy = build_hierarchy(ids, edges)
    if n == 0:
        empty_i = np.zeros(1, dtype=np.int64)
        empty_h = np.empty(0, dtype=np.int64)
        empty_d = np.empty(0, dtype=np.float64)
        labeling = HubLabeling(
            empty_i, empty_h, empty_d, empty_i.copy(), empty_h.copy(),
            empty_d.copy(), stats={"entries": 0},
        )
        return labeling, hierarchy

    adj = door_graph_csr(ids, edges)
    adj_t = adj.T.tocsr()

    out_labels: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
    in_labels: List[List[Tuple[int, float]]] = [[] for _ in range(n)]
    # Hub-inverted working views, grown as hubs are processed.
    by_hub_in: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    by_hub_out: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    for h in (int(v) for v in hierarchy.order):
        fwd = dijkstra(adj, directed=True, indices=h)
        bwd = dijkstra(adj_t, directed=True, indices=h)

        # PLL pruning tests against labels of strictly earlier hubs, both
        # evaluated before this hub's own entries are appended.
        est_fwd = np.full(n, np.inf)
        for g, d_hg in out_labels[h]:
            targets, dists = by_hub_in[g]
            est_fwd[targets] = np.minimum(est_fwd[targets], d_hg + dists)
        est_bwd = np.full(n, np.inf)
        for g, d_gh in in_labels[h]:
            sources, dists = by_hub_out[g]
            est_bwd[sources] = np.minimum(est_bwd[sources], dists + d_gh)

        keep_in = np.isfinite(fwd) & (fwd < est_fwd)
        targets = np.flatnonzero(keep_in)
        target_dists = fwd[targets]
        for v, dist in zip(targets.tolist(), target_dists.tolist()):
            in_labels[v].append((h, dist))
        by_hub_in[h] = (targets, target_dists)

        keep_out = np.isfinite(bwd) & (bwd < est_bwd)
        sources = np.flatnonzero(keep_out)
        source_dists = bwd[sources]
        for v, dist in zip(sources.tolist(), source_dists.tolist()):
            out_labels[v].append((h, dist))
        by_hub_out[h] = (sources, source_dists)

    out_indptr, out_hubs, out_dists = _csr_from_lists(n, out_labels)
    in_indptr, in_hubs, in_dists = _csr_from_lists(n, in_labels)

    labeling = HubLabeling(
        out_indptr=out_indptr,
        out_hubs=out_hubs,
        out_dists=out_dists,
        in_indptr=in_indptr,
        in_hubs=in_hubs,
        in_dists=in_dists,
        stats={"entries": float(len(out_hubs) + len(in_hubs))},
    )
    return labeling, hierarchy
