"""The distance-aware graph G_dist (paper §III-C).

G_dist = (V, E_a, L, f_dv, f_d2d) extends the accessibility graph with two
distance mappings:

* ``f_dv(d_i, v_j)`` — if ``v_j`` is an enterable partition of door ``d_i``,
  the *longest* distance one can reach within ``v_j`` from ``d_i``
  (``max_{p ∈ v_j} ‖d_i, p‖``); otherwise ∞.  Query processing uses it to
  decide that an entire partition lies inside a query range.
* ``f_d2d(v_k, d_i, d_j)`` — the intra-partition distance ``‖d_i, d_j‖_{v_k}``
  when ``d_i`` enters ``v_k`` and ``d_j`` leaves ``v_k``; 0 when
  ``d_i = d_j`` touches ``v_k``; ∞ otherwise.  These are the edge weights the
  door-to-door search (Algorithm 1) traverses.

Both mappings are memoised: floor plans are static, and the paper's indexing
framework precomputes exactly these values.

Every finite f_d2d value is rounded to a multiple of :data:`WEIGHT_QUANTUM`
when it is first computed.  Door-graph path lengths are sums of these
weights, and any such sum below 2³³ m is exact in float64 whatever the
order of addition, so Algorithm 1, the bulk matrix builder, the 2-hop
labels and their repair overlay all produce the same bits for the same
shortest path.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple, TYPE_CHECKING

from repro.exceptions import UnknownEntityError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.model.builder import IndoorSpace

#: Grid every finite f_d2d weight is rounded to, in metres (2⁻²⁰ m, about
#: 0.95 µm): each weight moves by at most half of it.
WEIGHT_QUANTUM = 2.0 ** -20


class DistanceAwareGraph:
    """Memoised f_dv / f_d2d view over an :class:`IndoorSpace`.

    The vertex set, edge set, and labels are those of the accessibility
    graph; this class only adds the distance mappings, mirroring the paper's
    5-tuple definition.
    """

    def __init__(self, space: "IndoorSpace") -> None:
        self._space = space
        self._fdv_cache: Dict[Tuple[int, int], float] = {}
        self._fd2d_cache: Dict[Tuple[int, int, int], float] = {}

    @property
    def space(self) -> "IndoorSpace":
        """The indoor space this graph describes."""
        return self._space

    @property
    def accessibility(self):
        """The underlying accessibility base graph (V, E_a, L)."""
        return self._space.accessibility

    def fdv(self, door_id: int, partition_id: int) -> float:
        """f_dv(d_i, v_j): longest reach within v_j from d_i, or ∞.

        ∞ signals that v_j is not an enterable partition of d_i — either the
        door does not touch it or the door is one-way out of it.
        """
        key = (door_id, partition_id)
        cached = self._fdv_cache.get(key)
        if cached is not None:
            return cached

        topology = self._space.topology
        if not topology.has_partition(partition_id):
            raise UnknownEntityError("partition", partition_id)
        if partition_id not in topology.enterable_partitions(door_id):
            value = math.inf
        else:
            partition = self._space.partition(partition_id)
            value = partition.max_distance_from(self._space.door(door_id).midpoint)
        self._fdv_cache[key] = value
        return value

    def fd2d(self, partition_id: int, from_door: int, to_door: int) -> float:
        """f_d2d(v_k, d_i, d_j): cost of crossing v_k from d_i to d_j.

        Finite exactly when one can enter v_k through d_i and leave it
        through d_j (intra-partition walking distance between the two door
        midpoints, rounded to :data:`WEIGHT_QUANTUM`), or trivially 0 when
        d_i = d_j touches v_k.
        """
        # A hit is one subscription: Algorithms 1-4 call this once per
        # relaxed edge, and the indexing framework precomputes the table.
        try:
            return self._fd2d_cache[(partition_id, from_door, to_door)]
        except KeyError:
            return self._fd2d_miss(partition_id, from_door, to_door)

    def _fd2d_miss(self, partition_id: int, from_door: int, to_door: int) -> float:
        topology = self._space.topology
        if not topology.has_partition(partition_id):
            raise UnknownEntityError("partition", partition_id)
        if from_door == to_door:
            value = (
                0.0
                if partition_id in topology.partitions_of(from_door)
                else math.inf
            )
        elif (
            from_door in topology.enterable_doors(partition_id)
            and to_door in topology.leaveable_doors(partition_id)
        ):
            partition = self._space.partition(partition_id)
            value = partition.intra_distance(
                self._space.door(from_door).midpoint,
                self._space.door(to_door).midpoint,
            )
            if not math.isinf(value):
                value = round(value / WEIGHT_QUANTUM) * WEIGHT_QUANTUM
        else:
            value = math.inf
        self._fd2d_cache[(partition_id, from_door, to_door)] = value
        return value

    def precompute(self) -> None:
        """Eagerly fill both caches for the whole space.

        The indexing framework (§IV) calls this before building the
        door-to-door distance matrix so that matrix construction does no
        geometry work.
        """
        topology = self._space.topology
        for partition_id in topology.partition_ids:
            enterable = sorted(topology.enterable_doors(partition_id))
            leaveable = sorted(topology.leaveable_doors(partition_id))
            for from_door in enterable:
                self.fdv(from_door, partition_id)
                for to_door in leaveable:
                    if from_door != to_door:
                        self.fd2d(partition_id, from_door, to_door)

    def cache_stats(self) -> Dict[str, int]:
        """Sizes of the two memo tables (useful in tests and diagnostics)."""
        return {
            "fdv_entries": len(self._fdv_cache),
            "fd2d_entries": len(self._fd2d_cache),
        }
