"""WAL-driven incremental repair of a stale labels index.

After topology mutations a framework's indexes are stale (its
``built_epoch`` trails ``space.topology_epoch``).  For the dense backend
the only remedy is a full O(N · Dijkstra) rebuild; the labeling admits a
cheaper path for the mutations the WAL records, and
:meth:`repro.index.IndexFramework.rebuild` takes it when it is handed
those records:

* ``add_partition`` adds a door-less partition, so it changes no
  door-graph edge.
* ``add_door`` only *adds* edges, and every edge it creates touches the
  new door.  Any shortest path improved since the labels were built
  therefore passes through a door added since then, so running one
  forward + one backward canonical Dijkstra from each such door — a
  **patch hub** — and taking ``min(label answer, through-patch sum)``
  yields exact current-graph distances.  The hubs are the index's
  existing patch hubs plus the doors the records add, so repairs compose:
  every patch row is recomputed on the current graph.

  The overlay is bit-identical to a full dense rebuild, not just
  mathematically exact: door-graph weights are multiples of
  :data:`repro.model.distance_graph.WEIGHT_QUANTUM`, so the half-path
  sums d(·, hub) + d(hub, ·) and the dense matrix's Dijkstra fold are
  exact and agree to the bit, scan order included.
* ``remove_door`` can *increase* distances, which no overlay over the old
  labels can express — that is the full-rebuild fallback.

The records are trusted only when they account for every epoch in
``(built_epoch, topology_epoch]``, one record per epoch; a gap means a
mutation that bypassed the WAL (a direct ``space.add_door``), and the
caller rebuilds.  So does an overlay past :data:`MAX_PATCHES` hubs.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np
from scipy.sparse.csgraph import dijkstra

from repro.distance.matrix import door_graph_csr, door_graph_edges
from repro.labels.index import LabeledDistanceIndex, LabelPatches

#: Past this many patch hubs the overlay stops paying for itself (each hub
#: holds two dense rows) and repair falls back to a full rebuild.
MAX_PATCHES = 16


def repair_labels(
    index: LabeledDistanceIndex,
    graph,
    built_epoch: int,
    records: Iterable,
) -> Optional[LabeledDistanceIndex]:
    """Repair ``index`` (exact at ``built_epoch``) to ``graph``'s current
    topology from the WAL ``records`` alone.

    Records at or below ``built_epoch`` are ignored.  Returns ``None`` when
    the caller must rebuild: the records leave an epoch unaccounted for,
    contain a ``remove_door``, or need more than :data:`MAX_PATCHES` hubs.
    """
    since = [record for record in records if record.epoch > built_epoch]
    epoch = graph.space.topology_epoch
    if [record.epoch for record in since] != list(
        range(built_epoch + 1, epoch + 1)
    ):
        return None
    if any(record.op == "remove_door" for record in since):
        return None
    added = {int(r.args["id"]) for r in since if r.op == "add_door"}
    if not added:
        return index
    old = index.patches.patch_ids if index.patches is not None else ()
    patch_ids = tuple(sorted(added.union(old)))
    if len(patch_ids) > MAX_PATCHES:
        return None

    current_ids = graph.space.topology.door_ids
    index_of = {door_id: i for i, door_id in enumerate(current_ids)}
    patch_idx = [index_of[d] for d in patch_ids]
    adjacency = door_graph_csr(current_ids, door_graph_edges(graph))
    fwd = np.atleast_2d(dijkstra(adjacency, directed=True, indices=patch_idx))
    bwd = np.atleast_2d(
        dijkstra(adjacency.T.tocsr(), directed=True, indices=patch_idx)
    )
    return index.with_patches(
        LabelPatches(
            door_ids=tuple(current_ids), patch_ids=patch_ids, fwd=fwd, bwd=bwd
        )
    )
