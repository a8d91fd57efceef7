"""Independent-set vertex hierarchy over the door graph (IS-LABEL style).

Following IS-LABEL (Fu et al., arXiv:1211.2367), the hierarchy is built by
repeatedly *peeling* an independent set of low-degree vertices off the
(undirected skeleton of the) door graph.  When a vertex is removed, its
surviving neighbours are pairwise connected by shortcut edges so that
later levels still see every routing relationship that passed through the
removed vertex.  Vertices peeled early sit at the **bottom** of the
hierarchy (level 0); the dense residual core peeled last sits at the top.

:mod:`repro.labels.builder` processes hubs top-of-hierarchy first — the
order that makes pruned 2-hop labeling produce small labels, because
central vertices cover many shortest paths (TopCom, arXiv:1602.01537,
makes the same argument for directed topological orders).  Incremental
repair (:mod:`repro.labels.repair`) does not read the hierarchy: its
patch hubs come from the WAL records alone.

Everything here is deterministic: ties break on ascending door id, and no
randomness or wall-clock is consulted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

#: Vertices whose *current* degree exceeds this are kept out of the peeled
#: independent sets when lower-degree vertices exist (removing them would
#: quadratically fill the skeleton with shortcut edges).  The threshold is
#: adaptive: the minimum alive degree always qualifies, so peeling makes
#: progress even on the clique-like door graphs hallway partitions induce
#: (every door pair of a partition is directly connected, so degrees start
#: at the partition's door count).
MAX_PEEL_DEGREE = 16

#: Hard ceiling on peeling rounds; anything still standing afterwards is
#: assigned to the final level.  Door graphs peel out in far fewer rounds.
MAX_LEVELS = 64


@dataclass(frozen=True)
class VertexHierarchy:
    """Levels and the derived hub-processing order for one door graph.

    Attributes:
        door_ids: ascending door ids (matrix-index order, shared with every
            other index structure).
        levels: ``levels[i]`` is the peel level of ``door_ids[i]``; higher
            means more central.
        order: matrix indices in hub-processing order — descending level,
            then descending original degree, then ascending door id.
    """

    door_ids: Tuple[int, ...]
    levels: np.ndarray
    order: np.ndarray

    @property
    def height(self) -> int:
        """Number of distinct levels."""
        return int(self.levels.max()) + 1 if len(self.levels) else 0

    def rank_of(self) -> np.ndarray:
        """``rank[i]`` = position of vertex ``i`` in the processing order
        (0 = most central, processed first)."""
        rank = np.empty(len(self.order), dtype=np.int64)
        rank[self.order] = np.arange(len(self.order), dtype=np.int64)
        return rank


def _undirected_skeleton(
    n: int, edges: Sequence[Tuple[int, int, float]], index: Dict[int, int]
) -> List[Set[int]]:
    """Adjacency sets of the undirected door-graph skeleton (weights and
    directions dropped — the hierarchy only needs connectivity shape)."""
    adjacency: List[Set[int]] = [set() for _ in range(n)]
    for from_door, to_door, _ in edges:
        i, j = index[from_door], index[to_door]
        if i != j:
            adjacency[i].add(j)
            adjacency[j].add(i)
    return adjacency


def build_hierarchy(
    door_ids: Sequence[int], edges: Sequence[Tuple[int, int, float]]
) -> VertexHierarchy:
    """Peel independent sets off the door graph to produce the hierarchy.

    Args:
        door_ids: ascending door ids (row order of every distance backend).
        edges: directed ``(from_door, to_door, weight)`` triples, e.g. from
            :func:`repro.distance.matrix.door_graph_edges`.
    """
    ids = tuple(door_ids)
    n = len(ids)
    index = {door_id: i for i, door_id in enumerate(ids)}
    adjacency = _undirected_skeleton(n, edges, index)
    original_degree = np.array(
        [len(adjacency[i]) for i in range(n)], dtype=np.int64
    )

    levels = np.full(n, -1, dtype=np.int64)
    alive: Set[int] = set(range(n))
    level = 0
    while alive and level < MAX_LEVELS:
        # Candidates in deterministic min-degree-first order; vertices whose
        # current degree is too high are deferred to keep shortcut fill-in
        # bounded (standard IS-LABEL practice for dense residues), but the
        # minimum alive degree always qualifies so every round peels.
        min_degree = min(len(adjacency[v]) for v in alive)
        threshold = max(MAX_PEEL_DEGREE, min_degree)
        candidates = sorted(
            (v for v in alive if len(adjacency[v]) <= threshold),
            key=lambda v: (len(adjacency[v]), ids[v]),
        )
        picked: List[int] = []
        blocked: Set[int] = set()
        for v in candidates:
            if v in blocked:
                continue
            picked.append(v)
            blocked.add(v)
            blocked.update(adjacency[v])
        for v in picked:
            levels[v] = level
            neighbours = adjacency[v]
            # Shortcut the removed vertex: its neighbours become a clique in
            # the residual skeleton, preserving through-routing structure.
            for a in neighbours:
                adjacency[a].discard(v)
                adjacency[a].update(b for b in neighbours if b != a)
            adjacency[v] = set()
            alive.discard(v)
        level += 1
    # Residual core (or anything beyond MAX_LEVELS): topmost level together.
    if alive:
        for v in alive:
            levels[v] = level
        level += 1

    order = np.array(
        sorted(
            range(n),
            key=lambda v: (-int(levels[v]), -int(original_degree[v]), ids[v]),
        ),
        dtype=np.int64,
    )
    return VertexHierarchy(door_ids=ids, levels=levels, order=order)

