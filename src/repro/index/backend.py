"""The distance-backend protocol behind :class:`IndexFramework`.

§IV of the paper fixes one concrete structure — the dense M_d2d / M_idx
matrix pair — but Algorithms 2-6, the serve/shard tiers, and the
scatter-gather pruning bounds only ever consume a narrow behavioural
surface: door-to-door distances, nearest-first door scans, and set-to-set
lower bounds.  :class:`DistanceBackend` names that surface so the
framework can swap the dense matrix for the 2-hop labeling of
:mod:`repro.labels` (IS-LABEL / TopCom style) without any query-layer
change.

Backends are selected by name at build time::

    IndexFramework.build(space, backend="labels")

Both shipped backends answer **bit-identically**: door-graph weights are
multiples of :data:`repro.model.distance_graph.WEIGHT_QUANTUM`, so every
path sum is exact in any order, and every ``distance()`` value, every
``doors_by_distance`` scan order, and every ``min_distance_between``
bound of the labeled backend equals the dense matrix's answer exactly.
"""

from __future__ import annotations

from typing import (
    Iterator,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

#: Names accepted by ``IndexFramework.build(backend=...)``.
BACKEND_KINDS = ("matrix", "labels")


def validate_backend(name: str) -> str:
    """Return ``name`` if it is a known backend kind, else raise."""
    if name not in BACKEND_KINDS:
        raise ValueError(
            f"unknown distance backend {name!r}; "
            f"choose one of {', '.join(BACKEND_KINDS)}"
        )
    return name


class DoorScanSource(Protocol):
    """The sorted door scan Algorithms 5/6 consume: any
    :class:`DistanceBackend`, or one batch's shared row memo
    (:class:`repro.serve.SharedDoorScans`)."""

    def doors_by_distance(
        self, from_door: int, max_distance: Optional[float] = None
    ) -> Iterator[Tuple[int, float]]:
        """Yield ``(door_id, distance)`` nearest-first, stopping past
        ``max_distance`` and never yielding unreachable doors."""


@runtime_checkable
class DistanceBackend(Protocol):
    """What the query algorithms require of a door-distance structure.

    Implementations: :class:`repro.index.DistanceIndexMatrix` (dense,
    ``kind == "matrix"``) and :class:`repro.labels.LabeledDistanceIndex`
    (2-hop labels, ``kind == "labels"``).
    """

    @property
    def kind(self) -> str:
        """Backend name: ``"matrix"`` or ``"labels"``."""

    @property
    def door_ids(self) -> Tuple[int, ...]:
        """Ascending door ids the backend indexes."""

    @property
    def size(self) -> int:
        """Number of doors N."""

    def distance(self, from_door: int, to_door: int) -> float:
        """Minimum walking distance between two doors by id (may be inf)."""

    def doors_by_distance(
        self, from_door: int, max_distance: Optional[float] = None
    ) -> Iterator[Tuple[int, float]]:
        """Yield ``(door_id, distance)`` nearest-first, stopping past
        ``max_distance`` and never yielding unreachable doors."""

    def doors_unsorted(self, from_door: int) -> Iterator[Tuple[int, float]]:
        """Yield reachable ``(door_id, distance)`` in door-id order (the
        "without M_idx" baseline of §VI-B)."""

    def nearest_doors(
        self, from_door: int, k: int
    ) -> Tuple[Tuple[int, float], ...]:
        """The k nearest doors, nearest first."""

    def min_distance_between(
        self, from_doors: Sequence[int], to_doors: Sequence[int]
    ) -> float:
        """``min`` over door pairs of ``distance(f, t)`` — the shard-pruning
        lower bound; inf when either set is empty or nothing is reachable."""

    def memory_bytes(self) -> int:
        """Approximate resident bytes of the structure."""

    def memory_report(self) -> dict:
        """Per-component byte accounting, keyed by component name."""
