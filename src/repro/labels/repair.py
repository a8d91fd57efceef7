"""WAL-driven incremental repair of a stale labels-backed framework.

After topology mutations the framework's indexes are stale (its
``built_epoch`` trails ``space.topology_epoch``).  For the dense backend
the only remedy is a full O(N · Dijkstra) rebuild; the labeling admits a
cheaper path for the mutations the WAL actually records:

* ``add_partition`` / ``add_door`` only ever *add* door-graph edges (or
  lower a parallel-edge weight).  Any shortest path improved by such a
  change passes through an endpoint of an added edge, so running one
  forward + one backward canonical Dijkstra from each such endpoint — a
  **patch hub** — and taking ``min(label answer, through-patch sum)``
  yields exact current-graph distances.  New doors are themselves patch
  hubs, which also covers doors the labeling has never seen.

  The overlay is bit-identical to a full dense rebuild, not just
  mathematically exact: door-graph weights are multiples of
  :data:`repro.model.distance_graph.WEIGHT_QUANTUM`, so the half-path
  sums d(·, hub) + d(hub, ·) and the dense matrix's Dijkstra fold are
  exact and agree to the bit, scan order included.  Live
  reconfiguration (:mod:`repro.shard.reconfig`) serves repaired indexes
  directly.
* ``remove_door`` can *increase* distances, which no overlay over the old
  labels can express — that is the full-rebuild fallback.

The decision is driven by diffing the door graph against the edge set
captured at label-build time (so repairs compose: a second repair re-diffs
against the original base and recomputes all patch rows on the current
graph), with the affected hierarchy cone reported for observability and a
``max_patches`` threshold forcing the fallback when the overlay would
grow past its worth.  The repaired framework's ``built_epoch`` equals the
space's current topology epoch — epoch-coherent, exactly like a rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

import numpy as np
from scipy.sparse.csgraph import dijkstra

from repro.distance.matrix import door_graph_csr, door_graph_edges
from repro.labels.hierarchy import affected_cone
from repro.labels.index import LabeledDistanceIndex, LabelPatches

#: Past this many patch hubs the overlay stops paying for itself (each hub
#: holds two dense rows) and repair falls back to a full rebuild.
MAX_PATCHES = 16


@dataclass(frozen=True)
class RepairOutcome:
    """What the repair decided and why."""

    repaired: bool
    reason: str
    patch_hubs: Tuple[int, ...] = ()
    cone_size: int = 0


def _wants_rebuild(records: Optional[Iterable]) -> bool:
    """True when the WAL stream contains an op no overlay can express."""
    if records is None:
        return False
    return any(getattr(r, "op", None) == "remove_door" for r in records)


def repair_labels(
    index: LabeledDistanceIndex,
    graph,
    records: Optional[Iterable] = None,
    max_patches: int = MAX_PATCHES,
) -> Tuple[Optional[LabeledDistanceIndex], RepairOutcome]:
    """Incrementally repair ``index`` against ``graph``'s current topology.

    Returns ``(repaired_index, outcome)``; the index is ``None`` when the
    caller must fall back to a full rebuild (outcome says why).
    """
    if _wants_rebuild(records):
        return None, RepairOutcome(False, "wal contains remove_door")

    current_ids = graph.space.topology.door_ids
    base_ids = set(index.hierarchy.door_ids)
    if not base_ids <= set(current_ids):
        return None, RepairOutcome(False, "doors were removed")

    current_edges = door_graph_edges(graph)
    base = index.base_edges
    base_map: Dict[Tuple[int, int], float] = dict(
        zip(zip(base.src.tolist(), base.dst.tolist()), base.w.tolist())
    )
    current_map: Dict[Tuple[int, int], float] = {
        (a, b): w for a, b, w in current_edges
    }
    for key, base_w in base_map.items():
        current_w = current_map.get(key)
        if current_w is None or current_w > base_w:
            return None, RepairOutcome(
                False, "door-graph edges were removed or lengthened"
            )

    # An improved path crosses *both* endpoints of any improved edge, so
    # one patch hub per changed edge suffices; greedily cover the changed
    # edges with as few hubs as possible (new doors first — every edge a
    # new door introduces is incident to it).
    new_doors = set(current_ids) - base_ids
    changed_edges = [
        key
        for key, current_w in current_map.items()
        if (base_w := base_map.get(key)) is None or current_w < base_w
    ]
    patch_doors = set(new_doors)
    uncovered = [
        key for key in changed_edges if not (set(key) & patch_doors)
    ]
    while uncovered:
        counts: Dict[int, int] = {}
        for a, b in uncovered:
            counts[a] = counts.get(a, 0) + 1
            counts[b] = counts.get(b, 0) + 1
        hub = min(counts, key=lambda d: (-counts[d], d))
        patch_doors.add(hub)
        uncovered = [key for key in uncovered if hub not in key]

    if not patch_doors and tuple(current_ids) == index.hierarchy.door_ids:
        # Topology epoch moved without touching the door graph (e.g. an
        # added partition reusing existing connectivity): nothing to patch.
        return index.with_patches(index.patches), RepairOutcome(
            True, "door graph unchanged"
        )
    if len(patch_doors) > max_patches:
        return None, RepairOutcome(
            False,
            f"{len(patch_doors)} patch hubs exceed max_patches={max_patches}",
        )

    index_of = {door_id: i for i, door_id in enumerate(current_ids)}
    patch_ids = tuple(sorted(patch_doors))
    patch_idx = [index_of[d] for d in patch_ids]
    adjacency = door_graph_csr(current_ids, current_edges)
    fwd = np.atleast_2d(dijkstra(adjacency, directed=True, indices=patch_idx))
    bwd = np.atleast_2d(
        dijkstra(adjacency.T.tocsr(), directed=True, indices=patch_idx)
    )
    patches = LabelPatches(
        door_ids=tuple(current_ids), patch_ids=patch_ids, fwd=fwd, bwd=bwd
    )

    base_index_of = {d: i for i, d in enumerate(index.hierarchy.door_ids)}
    seed = [base_index_of[d] for d in patch_ids if d in base_index_of]
    cone = affected_cone(index.hierarchy, seed)
    return index.with_patches(patches), RepairOutcome(
        True,
        f"patched through {len(patch_ids)} hub(s)",
        patch_hubs=patch_ids,
        cone_size=int(len(cone)),
    )


def repair_framework(
    framework,
    records: Optional[Iterable] = None,
    max_patches: int = MAX_PATCHES,
):
    """Repair (or rebuild) a stale labels-backed :class:`IndexFramework`.

    Returns ``(fresh_framework, outcome)``.  The cheap structures (DPT,
    R-tree, object buckets) are always rebuilt — they are linear in the
    space — while the labeling is patched in place when the mutation diff
    allows it.  Falls back to ``framework.rebuild()`` (which preserves the
    backend choice) otherwise.
    """
    from repro.index.dpt import DoorPartitionTable
    from repro.index.framework import IndexFramework
    from repro.index.objects import ObjectStore
    from repro.index.rtree import PartitionRTree

    index = framework.distance_index
    if getattr(index, "kind", None) != "labels":
        return framework.rebuild(), RepairOutcome(
            False, f"backend {getattr(index, 'kind', '?')!r} has no repair path"
        )

    space = framework.space
    graph = space.distance_graph
    graph.precompute()
    repaired, outcome = repair_labels(
        index, graph, records=records, max_patches=max_patches
    )
    if repaired is None:
        return framework.rebuild(), outcome

    dpt = DoorPartitionTable.build(graph)
    rtree = PartitionRTree(space).install()
    store = ObjectStore(space, framework.objects.cell_size)
    store.add_all(list(framework.objects))
    fresh = IndexFramework(space, repaired, dpt, rtree, store)
    fresh.build_config = dict(framework.build_config)
    return fresh, outcome
