"""Topology information mappings (paper §III-A).

The fundamental mapping is D2P, which sends a door ``d_k`` to the set of
ordered partition pairs ``(v_i, v_j)`` such that one can move from ``v_i`` to
``v_j`` through ``d_k``.  Everything else — D2P⊣ (enterable partitions),
D2P⊢ (leaveable partitions), P2D⊣ (enterable doors), P2D⊢ (leaveable doors)
and the undirected P2D — is derived from it, exactly as in the paper.

The paper stipulates that each door connects exactly two partitions (outdoor
space being itself a partition); :meth:`Topology.connect` enforces it.  That
makes D2P(d) equal to ``{(v_i, v_j) : v_i ∈ D2P⊢(d), v_j ∈ D2P⊣(d), v_i ≠
v_j}``, so D2P is stored as its two projections and :meth:`Topology.d2p`
rebuilds the pairs.

Every view (D2P⊣, D2P⊢, P2D⊣, P2D⊢) is an immutable ``frozenset`` that the
topology keeps and hands to the caller without copying: the door-graph
searches (Algorithms 1-4) read them once per settled door.  ``connect`` and
``disconnect`` replace the stored frozensets rather than mutate them, so a
view taken before a mutation is a snapshot that never changes.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Set, Tuple

from repro.exceptions import TopologyError, UnknownEntityError

_EMPTY: FrozenSet[int] = frozenset()


class Topology:
    """The D2P mapping and its derived P2D views.

    Partitions and doors are referred to by integer identifiers; the entity
    objects live in :class:`~repro.model.builder.IndoorSpace`.  All views are
    immutable snapshots shared with the caller (see the module docstring).
    """

    def __init__(self) -> None:
        # D2P⊣ / D2P⊢ per door.  A two-way door enters and leaves the same
        # two partitions, and both maps then hold one shared frozenset.
        self._enterable_partitions: Dict[int, FrozenSet[int]] = {}
        self._leaveable_partitions: Dict[int, FrozenSet[int]] = {}
        # P2D⊣ / P2D⊢ per partition; the keys are the registered partitions.
        self._enterable_doors: Dict[int, FrozenSet[int]] = {}
        self._leaveable_doors: Dict[int, FrozenSet[int]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_partition(self, partition_id: int) -> None:
        """Register a partition identifier (idempotent)."""
        self._enterable_doors.setdefault(partition_id, _EMPTY)
        self._leaveable_doors.setdefault(partition_id, _EMPTY)

    def connect(
        self,
        door_id: int,
        from_partition: int,
        to_partition: int,
        bidirectional: bool = True,
    ) -> None:
        """Declare that ``door_id`` permits movement ``from → to``.

        With ``bidirectional=True`` (the common case) the reverse movement is
        registered too.  A door may be connected incrementally, but it must
        always touch exactly the same two distinct partitions.

        Raises:
            TopologyError: if the two partitions are equal, a partition is
                unknown, or the door already connects a different pair.
        """
        if from_partition == to_partition:
            raise TopologyError(
                f"door {door_id} cannot connect partition "
                f"{from_partition} to itself"
            )
        for partition_id in (from_partition, to_partition):
            self._require_partition(partition_id)

        pair = {from_partition, to_partition}
        edges: Set[Tuple[int, int]] = set()
        if door_id in self._enterable_partitions:
            touched = self.partitions_of(door_id)
            if touched != pair:
                raise TopologyError(
                    f"door {door_id} already connects partitions {sorted(touched)}; "
                    f"cannot also connect {sorted(pair)} "
                    "(each door connects exactly two partitions)"
                )
            edges.update(self.d2p(door_id))
        edges.add((from_partition, to_partition))
        if bidirectional:
            edges.add((to_partition, from_partition))
        enterable = frozenset(to_p for _, to_p in edges)
        leaveable = frozenset(from_p for from_p, _ in edges)
        self._enterable_partitions[door_id] = enterable
        self._leaveable_partitions[door_id] = (
            enterable if leaveable == enterable else leaveable
        )
        # ``|=`` on a frozenset binds a new frozenset (copy-on-write).
        for from_p, to_p in edges:
            self._leaveable_doors[from_p] |= {door_id}
            self._enterable_doors[to_p] |= {door_id}

    def disconnect(self, door_id: int) -> None:
        """Remove a door from the mapping entirely (all its edges).

        Raises:
            UnknownEntityError: if the door was never connected.
        """
        self._require_door(door_id)
        # ``-=`` on a frozenset binds a new frozenset (copy-on-write).
        for partition_id in self._enterable_partitions.pop(door_id):
            self._enterable_doors[partition_id] -= {door_id}
        for partition_id in self._leaveable_partitions.pop(door_id):
            self._leaveable_doors[partition_id] -= {door_id}

    # ------------------------------------------------------------------
    # The fundamental mapping and its derivations (paper Eq. 1-5)
    # ------------------------------------------------------------------
    def d2p(self, door_id: int) -> FrozenSet[Tuple[int, int]]:
        """D2P(d): the ordered partition pairs the door permits."""
        enterable = self.enterable_partitions(door_id)
        return frozenset(
            (from_p, to_p)
            for from_p in self._leaveable_partitions[door_id]
            for to_p in enterable
            if from_p != to_p
        )

    def enterable_partitions(self, door_id: int) -> FrozenSet[int]:
        """D2P⊣(d) = π₂(D2P(d)): partitions one can *enter* through d."""
        try:
            return self._enterable_partitions[door_id]
        except KeyError:
            raise UnknownEntityError("door", door_id) from None

    def leaveable_partitions(self, door_id: int) -> FrozenSet[int]:
        """D2P⊢(d) = π₁(D2P(d)): partitions one can *leave* through d."""
        try:
            return self._leaveable_partitions[door_id]
        except KeyError:
            raise UnknownEntityError("door", door_id) from None

    def partitions_of(self, door_id: int) -> FrozenSet[int]:
        """The (exactly two) partitions the door touches."""
        enterable = self.enterable_partitions(door_id)
        leaveable = self._leaveable_partitions[door_id]
        return enterable if leaveable is enterable else enterable | leaveable

    def enterable_doors(self, partition_id: int) -> FrozenSet[int]:
        """P2D⊣(v): doors through which one can enter v."""
        try:
            return self._enterable_doors[partition_id]
        except KeyError:
            raise UnknownEntityError("partition", partition_id) from None

    def leaveable_doors(self, partition_id: int) -> FrozenSet[int]:
        """P2D⊢(v): doors through which one can leave v."""
        try:
            return self._leaveable_doors[partition_id]
        except KeyError:
            raise UnknownEntityError("partition", partition_id) from None

    def doors_of(self, partition_id: int) -> FrozenSet[int]:
        """P2D(v) = P2D⊣(v) ∪ P2D⊢(v): all doors touching v."""
        return self.enterable_doors(partition_id) | self.leaveable_doors(partition_id)

    def touches(self, door_id: int, partition_id: int) -> bool:
        """True when the door touches the partition (either direction)."""
        return (
            partition_id in self.enterable_partitions(door_id)
            or partition_id in self._leaveable_partitions[door_id]
        )

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def door_ids(self) -> Tuple[int, ...]:
        """All registered door ids, ascending."""
        return tuple(sorted(self._enterable_partitions))

    @property
    def partition_ids(self) -> Tuple[int, ...]:
        """All registered partition ids, ascending."""
        return tuple(sorted(self._enterable_doors))

    def is_unidirectional(self, door_id: int) -> bool:
        """True when |D2P(d)| = 1 — the door permits one direction only."""
        return len(self.enterable_partitions(door_id)) == 1

    def is_bidirectional(self, door_id: int) -> bool:
        """True when |D2P(d)| = 2."""
        return not self.is_unidirectional(door_id)

    def has_door(self, door_id: int) -> bool:
        """True when the door id is registered with at least one edge."""
        return door_id in self._enterable_partitions

    def has_partition(self, partition_id: int) -> bool:
        """True when the partition id is registered."""
        return partition_id in self._enterable_doors

    def directed_edges(self) -> Iterable[Tuple[int, int, int]]:
        """All ``(from_partition, to_partition, door_id)`` triples — the edge
        set E_a of the accessibility graph (paper §III-B)."""
        for door_id in self.door_ids:
            for from_p, to_p in sorted(self.d2p(door_id)):
                yield (from_p, to_p, door_id)

    def validate(self) -> None:
        """Check global invariants; raises :class:`TopologyError` on failure.

        Invariants: every door touches exactly two distinct partitions, and
        every referenced partition is registered.
        """
        for door_id in self._enterable_partitions:
            touched = self.partitions_of(door_id)
            if len(touched) != 2:
                raise TopologyError(
                    f"door {door_id} touches partitions {sorted(touched)}; "
                    "exactly two are required"
                )
            missing = sorted(p for p in touched if not self.has_partition(p))
            if missing:
                raise TopologyError(
                    f"door {door_id} references unregistered partitions {missing}"
                )

    def _require_door(self, door_id: int) -> None:
        if door_id not in self._enterable_partitions:
            raise UnknownEntityError("door", door_id)

    def _require_partition(self, partition_id: int) -> None:
        if partition_id not in self._enterable_doors:
            raise UnknownEntityError("partition", partition_id)
