"""2-hop distance labeling for campus-scale door graphs (beyond the paper).

The dense M_d2d / M_idx pair of §IV is O(N²) in the door count — fine for
one building, fatal for a campus.  This package provides the scalable
alternative behind ``IndexFramework.build(backend="labels")``:

* :mod:`repro.labels.hierarchy` — an independent-set vertex hierarchy
  over the door graph (IS-LABEL, arXiv:1211.2367).
* :mod:`repro.labels.builder` — pruned per-hub Dijkstra labeling in
  hierarchy order, directed-aware (TopCom, arXiv:1602.01537); answers are
  bit-identical to the matrix because door-graph weights are exact.
* :mod:`repro.labels.index` — :class:`LabeledDistanceIndex`, the
  :class:`repro.index.DistanceBackend` implementation.
* :mod:`repro.labels.serialize` — the deterministic snapshot codec.
* :mod:`repro.labels.repair` — WAL-driven incremental repair: patch hubs
  from the records alone, with full-rebuild fallback; reached through
  :meth:`repro.index.IndexFramework.rebuild` given the records.

See ``docs/indexing.md`` for when to prefer labels over the matrix.
"""

from repro.labels.builder import HubLabeling, build_labeling
from repro.labels.hierarchy import VertexHierarchy, build_hierarchy
from repro.labels.index import LabelPatches, LabeledDistanceIndex
from repro.labels.repair import MAX_PATCHES, repair_labels
from repro.labels.serialize import labels_from_bytes, labels_to_bytes

__all__ = [
    "HubLabeling",
    "LabelPatches",
    "LabeledDistanceIndex",
    "MAX_PATCHES",
    "VertexHierarchy",
    "build_hierarchy",
    "build_labeling",
    "labels_from_bytes",
    "labels_to_bytes",
    "repair_labels",
]
