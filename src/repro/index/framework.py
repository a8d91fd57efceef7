"""The assembled indexing framework the query algorithms run on (§IV-V).

:class:`IndexFramework` bundles, for one indoor space:

* the distance-aware graph G_dist (with f_dv / f_d2d precomputed),
* the Door-to-Door Distance Matrix M_d2d and Distance Index Matrix M_idx,
* the Door-to-Partition Table,
* the partition R-tree (installed as the space's ``getHostPartition``
  backend), and
* the per-partition grid-indexed object buckets.

Everything lives in main memory, as in the paper's experiments.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.exceptions import StaleIndexError
from repro.index.backend import DistanceBackend, validate_backend
from repro.index.distance_matrix import DistanceIndexMatrix
from repro.index.dpt import DoorPartitionTable
from repro.index.objects import DEFAULT_CELL_SIZE, IndoorObject, ObjectStore
from repro.index.rtree import PartitionRTree
from repro.model.builder import IndoorSpace


def build_distance_backend(
    space: IndoorSpace, backend: str = "matrix", reference_matrix: bool = False
) -> DistanceBackend:
    """Precompute G_dist for ``space`` and build the named distance backend
    over it (see :meth:`IndexFramework.build` for the arguments)."""
    validate_backend(backend)
    if reference_matrix and backend != "matrix":
        raise ValueError("reference_matrix only applies to the matrix backend")
    graph = space.distance_graph
    graph.precompute()
    if backend == "labels":
        from repro.labels import LabeledDistanceIndex

        return LabeledDistanceIndex.build(graph)
    return DistanceIndexMatrix.build(graph, reference=reference_matrix)


class IndexFramework:
    """All §IV index structures for one indoor space.

    Build with :meth:`build`; hand the instance to
    :class:`repro.queries.engine.QueryEngine`.
    """

    def __init__(
        self,
        space: IndoorSpace,
        distance_index: DistanceBackend,
        dpt: DoorPartitionTable,
        rtree: PartitionRTree,
        objects: ObjectStore,
    ) -> None:
        self.space = space
        self.distance_index = distance_index
        self.dpt = dpt
        self.rtree = rtree
        self.objects = objects
        #: Topology epoch of ``space`` at the moment the indexes were built;
        #: compared against ``space.topology_epoch`` by :meth:`check_fresh`.
        self.built_epoch = space.topology_epoch
        #: How :meth:`build` was parameterised; :meth:`rebuild` replays it
        #: so a rebuilt framework keeps its backend and builder choices.
        self.build_config = {
            "backend": getattr(distance_index, "kind", "matrix"),
            "reference_matrix": False,
        }

    @classmethod
    def build(
        cls,
        space: IndoorSpace,
        objects: Optional[Iterable[IndoorObject]] = None,
        cell_size: float = DEFAULT_CELL_SIZE,
        reference_matrix: bool = False,
        backend: str = "matrix",
    ) -> "IndexFramework":
        """Precompute every index structure for ``space``.

        Args:
            space: the indoor space to index.
            objects: initial objects to load into the buckets.
            cell_size: grid cell edge for the per-partition object index.
            reference_matrix: build M_d2d with the paper-faithful per-door
                Algorithm 1 instead of the fast bulk builder (validation
                only; identical result; matrix backend only).
            backend: distance backend — ``"matrix"`` for the dense
                M_d2d / M_idx pair of §IV, ``"labels"`` for the 2-hop
                labeling of :mod:`repro.labels` (bit-identical answers,
                O(label entries) instead of O(N²) resident bytes).
        """
        distance_index = build_distance_backend(
            space, backend, reference_matrix
        )
        framework = cls._assemble(
            space,
            distance_index,
            cell_size,
            {"backend": backend, "reference_matrix": reference_matrix},
        )
        if objects is not None:
            framework.objects.add_all(objects)
        return framework

    @classmethod
    def _assemble(
        cls,
        space: IndoorSpace,
        distance_index: DistanceBackend,
        cell_size: float,
        build_config: dict,
    ) -> "IndexFramework":
        """The DPT, R-tree and an empty object store around a ready
        distance backend (G_dist already precomputed)."""
        dpt = DoorPartitionTable.build(space.distance_graph)
        rtree = PartitionRTree(space).install()
        framework = cls(
            space, distance_index, dpt, rtree, ObjectStore(space, cell_size)
        )
        framework.build_config = build_config
        return framework

    def with_objects(self, store: ObjectStore) -> "IndexFramework":
        """A framework sharing this one's static indexes (matrix, DPT,
        R-tree) but holding a different object store.

        Floor plans are static while object populations vary, so benchmarks
        reuse the expensive door-distance matrix across object cardinalities
        exactly as a deployed system would.
        """
        derived = IndexFramework(
            self.space, self.distance_index, self.dpt, self.rtree, store
        )
        # The shared static indexes are exactly as fresh as this framework's,
        # regardless of what the space's epoch says right now.
        derived.built_epoch = self.built_epoch
        derived.build_config = dict(self.build_config)
        return derived

    # ------------------------------------------------------------------
    # Staleness epochs
    # ------------------------------------------------------------------
    @property
    def is_fresh(self) -> bool:
        """True while the space has not mutated since the indexes were built."""
        return self.built_epoch == self.space.topology_epoch

    def check_fresh(self) -> None:
        """Raise :class:`~repro.exceptions.StaleIndexError` when the space
        topology mutated after this framework was built.

        Every indexed query calls this on entry, so a stale M_d2d / DPT can
        never silently answer for a changed building.
        """
        current = self.space.topology_epoch
        if self.built_epoch != current:
            raise StaleIndexError(
                f"index built at topology epoch {self.built_epoch} but the "
                f"space is now at epoch {current}; rebuild the framework",
                built_epoch=self.built_epoch,
                current_epoch=current,
            )

    def rebuild(self, records: Optional[Iterable] = None) -> "IndexFramework":
        """Refresh every index structure against the space's current
        topology.

        The build configuration carries over (a labels-backed or
        reference-matrix framework stays one), and so does each object
        with its recorded host partition: topology mutations never move
        objects between partitions, so no point location runs.  Given the
        WAL ``records`` of the mutations since :attr:`built_epoch`, a
        labels framework keeps its labels and patches them
        (:func:`repro.labels.repair.repair_labels`); every other case — no
        records, the matrix backend, a ``remove_door``, a record gap —
        recomputes the distance backend from scratch.

        Returns a fresh framework; the original is left untouched so callers
        can swap atomically.
        """
        backend = str(self.build_config.get("backend", "matrix"))
        distance_index = None
        kind = getattr(self.distance_index, "kind", None)
        if records is not None and backend == kind == "labels":
            from repro.labels.repair import repair_labels

            self.graph.precompute()
            distance_index = repair_labels(
                self.distance_index, self.graph, self.built_epoch, records
            )
        if distance_index is None:
            distance_index = build_distance_backend(
                self.space,
                backend,
                bool(self.build_config.get("reference_matrix")),
            )
        fresh = IndexFramework._assemble(
            self.space,
            distance_index,
            self.objects.cell_size,
            dict(self.build_config),
        )
        for obj in self.objects:
            fresh.objects.add(
                obj, partition_id=self.objects.host_partition_id(obj.object_id)
            )
        return fresh

    @property
    def graph(self):
        """The distance-aware graph G_dist."""
        return self.space.distance_graph

    def memory_report(self) -> dict:
        """Sizes of the main-memory structures, in bytes, mirroring the
        paper's §VI-B accounting (matrix backend: N×N×8 for distances plus
        N×N×8 for the index ordering as stored; DPT: 28 bytes per record).

        ``backend_bytes`` breaks the distance structure down per component
        (labels vs hierarchy vs patches for the labeled backend), so
        dense and labeled footprints are directly comparable.
        """
        return {
            "doors": self.distance_index.size,
            "backend": getattr(self.distance_index, "kind", "matrix"),
            "matrix_bytes": self.distance_index.memory_bytes(),
            "backend_bytes": self.distance_index.memory_report(),
            "dpt_bytes": self.dpt.memory_bytes(),
            "objects": len(self.objects),
        }
