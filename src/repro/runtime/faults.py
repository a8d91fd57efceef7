"""Deterministic fault injection for the §IV index structures.

Production indexes fail in undramatic ways: a bad flush leaves NaNs in a
distance matrix, a partial rebuild drops Door-to-Partition records, a
memory-pressure eviction loses the matrix mid-query.  This harness injects
exactly those faults into a live :class:`~repro.index.IndexFramework` so
the degradation ladder and integrity checks are testable rather than
aspirational:

* :func:`corrupt_md2d` — seed-deterministically poison M_d2d entries with
  NaN, negative, or symmetry-breaking values;
* :func:`corrupt_labels` — the same adversary for the 2-hop labels
  backend: poison stored hub distances with NaN, negative, or finite-skew
  values;
* :func:`drop_dpt_records` — remove DPT records (queries expanding through
  the affected doors raise ``UnknownEntityError``);
* :func:`install_flaky_distance_index` — let the matrix serve ``fail_after``
  lookups and then raise :class:`~repro.exceptions.CorruptIndexError`,
  simulating mid-query index loss;
* :func:`flip_snapshot_byte` — flip bytes of a persisted snapshot on disk,
  the adversary the :mod:`repro.persist` checksum/quarantine ladder must
  always catch.

Every injector returns a :class:`FaultHandle` whose :meth:`~FaultHandle.undo`
restores the framework exactly, so a test can sweep many faults over one
expensive fixture.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from repro.exceptions import CorruptIndexError
from repro.index.framework import IndexFramework

#: The three supported M_d2d corruption modes.
MD2D_MODES = ("nan", "negative", "asymmetric")

#: The three supported label-array corruption modes.  ``"skew"`` is the
#: labels analogue of ``"asymmetric"``: it shifts stored hub distances so
#: answers silently deviate from canonical without tripping NaN checks.
LABELS_MODES = ("nan", "negative", "skew")


@dataclass
class FaultHandle:
    """An injected fault that can be reverted.

    Attributes:
        description: human-readable summary of what was injected.
        cells: the ``(row, column)`` matrix cells touched (M_d2d faults) or
            ``()`` for structural faults.
    """

    description: str
    cells: Tuple[Tuple[int, int], ...] = ()
    _undo: Callable[[], None] = field(default=lambda: None, repr=False)
    _active: bool = field(default=True, repr=False)
    _attempted: bool = field(default=False, repr=False)

    def undo(self) -> None:
        """Restore the framework to its pre-fault state.

        Idempotent and re-entrant: once a restore succeeds, further calls
        are no-ops.  If a restore fails partway (e.g. the injected file was
        quarantined underneath us), the *first* call raises so the failure
        is visible, but the handle stays undoable — a later call retries
        the restore (every injector's restore writes absolute saved state,
        so retrying never re-corrupts) and suppresses a repeat failure
        rather than raising again from cleanup paths.
        """
        if not self._active:
            return
        first_attempt = not self._attempted
        self._attempted = True
        try:
            self._undo()
        except Exception:
            if first_attempt:
                raise
            return
        self._active = False


def _corruptible_cells(
    matrix: np.ndarray, rng: random.Random, count: int
) -> List[Tuple[int, int]]:
    """Pick ``count`` distinct finite off-diagonal cells, seed-determined."""
    finite = np.argwhere(np.isfinite(matrix))
    candidates = [(int(i), int(j)) for i, j in finite if i != j]
    if len(candidates) < count:
        raise ValueError(
            f"matrix has only {len(candidates)} corruptible cells, "
            f"{count} requested"
        )
    return rng.sample(candidates, count)


def corrupt_md2d(
    framework: IndexFramework,
    mode: str = "nan",
    count: int = 1,
    seed: int = 0,
) -> FaultHandle:
    """Poison ``count`` M_d2d entries in place.

    Args:
        framework: the victim framework (its matrix is mutated in place).
        mode: ``"nan"`` writes NaN, ``"negative"`` writes a negative
            distance, ``"asymmetric"`` perturbs one triangle so
            ``M[i, j] != M[j, i]``.
        count: how many distinct off-diagonal finite cells to poison.
        seed: RNG seed — the same seed always poisons the same cells.
    """
    if mode not in MD2D_MODES:
        raise ValueError(f"mode must be one of {MD2D_MODES}, got {mode!r}")
    if getattr(framework.distance_index, "kind", "matrix") != "matrix":
        raise ValueError(
            "corrupt_md2d requires the dense matrix backend; this framework "
            f"uses {framework.distance_index.kind!r} — use corrupt_labels"
        )
    matrix = framework.distance_index.md2d
    rng = random.Random(seed)
    cells = _corruptible_cells(matrix, rng, count)
    saved = [(i, j, float(matrix[i, j])) for i, j in cells]
    for i, j in cells:
        if mode == "nan":
            matrix[i, j] = np.nan
        elif mode == "negative":
            matrix[i, j] = -abs(matrix[i, j]) - 1.0
        else:  # asymmetric: shift one direction only
            matrix[i, j] = matrix[i, j] + 7.5

    def restore() -> None:
        for i, j, value in saved:
            matrix[i, j] = value

    return FaultHandle(
        f"corrupt_md2d(mode={mode}, count={count}, seed={seed})",
        cells=tuple(cells),
        _undo=restore,
    )


def corrupt_labels(
    framework: IndexFramework,
    mode: str = "nan",
    count: int = 1,
    seed: int = 0,
) -> FaultHandle:
    """Poison ``count`` stored L_out hub distances of a labels backend.

    The labels sibling of :func:`corrupt_md2d`.  L_out entries feed both
    the pair-query hub intersection and the hub-merge scans, which read
    the arrays in place, so one poisoned entry is visible to ``distance``
    and ``doors_by_distance`` alike, from the next call on.  ``"nan"``
    and ``"negative"`` violations are caught by the
    backend's :meth:`self_check` (and hence ``check_index_integrity``);
    ``"skew"`` shifts a distance by a finite amount and is only observable
    differentially — exactly the adversary the chaos
    :class:`~repro.chaos.oracles.DifferentialOracle` exists to catch.

    Args:
        framework: the victim framework (must be labels-backed).
        mode: one of :data:`LABELS_MODES`.
        count: how many distinct label entries to poison.
        seed: RNG seed — the same seed always poisons the same entries.
    """
    if mode not in LABELS_MODES:
        raise ValueError(f"mode must be one of {LABELS_MODES}, got {mode!r}")
    index = framework.distance_index
    if getattr(index, "kind", "matrix") != "labels":
        raise ValueError(
            "corrupt_labels requires the labels backend; this framework "
            f"uses {getattr(index, 'kind', 'matrix')!r} — use corrupt_md2d"
        )
    dists = index.labeling.out_dists
    candidates = [int(k) for k in np.flatnonzero(np.isfinite(dists))]
    if len(candidates) < count:
        raise ValueError(
            f"labeling has only {len(candidates)} corruptible entries, "
            f"{count} requested"
        )
    rng = random.Random(seed)
    picks = rng.sample(candidates, count)
    saved = [(k, float(dists[k])) for k in picks]
    for k in picks:
        if mode == "nan":
            dists[k] = np.nan
        elif mode == "negative":
            dists[k] = -abs(dists[k]) - 1.0
        else:  # skew: finite shift, silently wrong answers
            dists[k] = dists[k] + 7.5

    def restore() -> None:
        for k, value in saved:
            dists[k] = value

    return FaultHandle(
        f"corrupt_labels(mode={mode}, count={count}, seed={seed})",
        cells=tuple((k, 0) for k in sorted(picks)),
        _undo=restore,
    )


def drop_dpt_records(
    framework: IndexFramework,
    door_ids: Optional[Iterable[int]] = None,
    count: int = 1,
    seed: int = 0,
) -> FaultHandle:
    """Remove Door-to-Partition records, as a partial rebuild would.

    Args:
        framework: the victim framework (its ``dpt`` is swapped for a copy
            missing the records; the original table is kept for undo).
        door_ids: exactly which records to drop; when ``None``, ``count``
            records are chosen seed-deterministically.
        count: how many records to drop when ``door_ids`` is ``None``.
        seed: RNG seed for the selection.
    """
    original = framework.dpt
    if door_ids is None:
        available = original.door_ids
        if len(available) < count:
            raise ValueError(
                f"DPT has only {len(available)} records, {count} requested"
            )
        door_ids = random.Random(seed).sample(available, count)
    dropped = sorted(set(door_ids))
    framework.dpt = original.without(dropped)

    def restore() -> None:
        framework.dpt = original

    return FaultHandle(f"drop_dpt_records({dropped})", _undo=restore)


class _DistanceIndexProxy:
    """A distance-index proxy running :meth:`_on_lookup` before each lookup.

    The lookup methods (``distance``, ``doors_by_distance``,
    ``doors_unsorted``) call the hook once per call and once per scan yield,
    so a fault can strike *mid-scan*.  Everything else (``md2d``,
    ``door_ids``, ...) delegates to the real index, so integrity checks and
    rebuild paths behave normally.
    """

    def __init__(self, inner) -> None:
        self._inner = inner

    def _on_lookup(self) -> None:
        raise NotImplementedError

    def distance(self, from_door: int, to_door: int) -> float:
        """M_d2d lookup, hooked."""
        self._on_lookup()
        return self._inner.distance(from_door, to_door)

    def doors_by_distance(self, from_door: int, max_distance=None):
        """Sorted scan; every yield is hooked."""
        for pair in self._inner.doors_by_distance(from_door, max_distance):
            self._on_lookup()
            yield pair

    def doors_unsorted(self, from_door: int):
        """Unsorted scan; every yield is hooked."""
        for pair in self._inner.doors_unsorted(from_door):
            self._on_lookup()
            yield pair

    def __getattr__(self, name):
        # Raise a plain AttributeError (never recurse) for two lookups that
        # must not delegate: ``_inner`` itself, which copy/pickle probe on a
        # half-built instance before ``__init__`` ran (delegating would
        # re-enter this method forever), and missing dunders, which protocol
        # probes (``__copy__``, ``__deepcopy__``, ``__setstate__``, ...) use
        # to discover capabilities the proxy does not have.
        try:
            inner = object.__getattribute__(self, "_inner")
        except AttributeError:
            raise AttributeError(name) from None
        if name.startswith("__") and name.endswith("__"):
            raise AttributeError(name)
        return getattr(inner, name)


class FlakyDistanceIndex(_DistanceIndexProxy):
    """A distance-index proxy that dies after ``fail_after`` lookups: each
    lookup and scan yield spends one, and the next one after the budget is
    spent raises :class:`CorruptIndexError`, so the loss genuinely strikes
    mid-query while integrity pre-checks still pass.
    """

    def __init__(self, inner, fail_after: int) -> None:
        super().__init__(inner)
        self._remaining = fail_after

    def _on_lookup(self) -> None:
        if self._remaining <= 0:
            raise CorruptIndexError(
                "injected fault: distance matrix lost mid-query"
            )
        self._remaining -= 1


def flip_snapshot_byte(
    path, count: int = 1, seed: int = 0
) -> FaultHandle:
    """Flip ``count`` bytes of a file on disk, seed-deterministically.

    The disk-level sibling of :func:`corrupt_md2d`: it simulates bit rot in
    a persisted snapshot (see :mod:`repro.persist`) so the checksum /
    quarantine / rebuild path is testable.  The first 8 bytes (the magic)
    are spared so the damage lands in content the checksums must catch, not
    in the file-type sniff.

    Args:
        path: the file to damage in place.
        count: how many distinct byte offsets to flip.
        seed: RNG seed — the same seed always flips the same offsets.
    """
    from pathlib import Path

    target = Path(path)
    data = bytearray(target.read_bytes())
    if len(data) <= 8 + count:
        raise ValueError(
            f"{target} has only {len(data)} bytes; cannot flip {count} "
            "past the magic"
        )
    rng = random.Random(seed)
    offsets = rng.sample(range(8, len(data)), count)
    saved = [(offset, data[offset]) for offset in offsets]
    for offset in offsets:
        data[offset] ^= 0xFF
    target.write_bytes(bytes(data))

    def restore() -> None:
        if not target.exists():
            # The damaged file was quarantined (renamed to *.corrupt) or
            # deleted by recovery; there is nothing left to restore and
            # the quarantined copy is deliberately kept as evidence.
            return
        current = bytearray(target.read_bytes())
        for offset, value in saved:
            current[offset] = value
        target.write_bytes(bytes(current))

    return FaultHandle(
        f"flip_snapshot_byte(path={target.name}, count={count}, seed={seed})",
        cells=tuple((offset, 0) for offset in sorted(offsets)),
        _undo=restore,
    )


def install_flaky_distance_index(
    framework: IndexFramework, fail_after: int = 0
) -> FaultHandle:
    """Make the distance matrix disappear after ``fail_after`` lookups.

    ``fail_after=0`` loses the matrix on the very first door lookup — the
    "index evicted between admission and execution" scenario.
    """
    original = framework.distance_index
    framework.distance_index = FlakyDistanceIndex(original, fail_after)

    def restore() -> None:
        framework.distance_index = original

    return FaultHandle(
        f"install_flaky_distance_index(fail_after={fail_after})",
        _undo=restore,
    )
