"""Label scans answered from the labels: the lazy hub-merge
``doors_by_distance`` and the set-to-set ``min_distance_between``.

Random doors and cut-offs, on Figure 1 and on a synthetic building, clean,
patched by ``rebuild(records)`` and under ``corrupt_labels`` faults.  The
references are the matrix backend and a row built in the test from
``distance(u, v)`` plus a stable argsort — the order the matrix's M_idx
scan replays, NaN tail included.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Segment
from repro.index import IndexFramework
from repro.index.framework import build_distance_backend
from repro.model.figure1 import ROOM_12, build_figure1
from repro.persist.wal import TopologyWAL, WalRecorder
from repro.runtime import corrupt_labels
from repro.runtime.faults import LABELS_MODES
from repro.synthetic import BuildingConfig, generate_building

SCAN_SETTINGS = settings(max_examples=60, deadline=None)


def _figure1():
    return build_figure1(), {
        "door_id": 99,
        "geometry": Segment(Point(4.0, 7.0), Point(4.0, 8.0)),
        "connects": (ROOM_12, 11),
    }


def _building():
    """Four floors; the added door joins the first two south rooms of
    floor 0 through the wall they share at x = 5 m."""
    building = generate_building(BuildingConfig(floors=4, rooms_per_floor=6))
    rooms = building.room_ids[0]
    return building.space, {
        "door_id": max(building.space.door_ids) + 1,
        "geometry": Segment(Point(5.0, 1.5, 0), Point(5.0, 2.5, 0)),
        "connects": (rooms[0], rooms[2]),
    }


def _patched(space, door):
    """A labels framework repaired by ``rebuild(records)`` after one
    ``add_door``, and the matrix backend of the mutated space."""
    framework = IndexFramework.build(space, backend="labels")
    with tempfile.TemporaryDirectory() as directory:
        recorder = WalRecorder(
            space, TopologyWAL(Path(directory) / "wal.log", fsync=False)
        )
        recorder.add_door(**door)
        fresh = framework.rebuild([recorder.last_record])
    assert fresh.distance_index.patch_count == 1
    return fresh.distance_index, build_distance_backend(space, "matrix")


@pytest.fixture(scope="module", params=["figure1", "building"])
def plans(request):
    """``(clean labels, clean matrix, patched labels, patched matrix)``."""
    make = _figure1 if request.param == "figure1" else _building
    space, _ = make()
    clean = (
        build_distance_backend(space, "labels"),
        build_distance_backend(space, "matrix"),
    )
    return clean + _patched(*make())


@pytest.fixture(scope="module", params=["figure1", "building"])
def labels_framework(request):
    """A labels framework that fault injection mutates and restores."""
    make = _figure1 if request.param == "figure1" else _building
    return IndexFramework.build(make()[0], backend="labels")


def _cutoffs(index):
    """``None``, or a cut-off drawn around the index's real distances (so
    ties at the cut-off itself are drawn too)."""
    return st.one_of(
        st.none(),
        st.floats(0.0, 200.0),
        st.sampled_from(index.door_ids).flatmap(
            lambda u: st.sampled_from(
                [d for _, d in index.doors_by_distance(u)]
            )
        ),
    )


def _reference_scan(index, u, max_distance):
    """The row scan: ``distance(u, ·)``, stable argsort, stop at inf or
    past the cut-off (NaN sorts after inf and passes the cut-off)."""
    ids = index.door_ids
    row = np.array([index.distance(u, v) for v in ids])
    scan = []
    for j in np.argsort(row, kind="stable"):
        dist = float(row[j])
        if math.isinf(dist):
            break
        if max_distance is not None and dist > max_distance:
            break
        scan.append((ids[j], dist))
    return scan


class TestScanEqualsMatrix:
    @SCAN_SETTINGS
    @given(data=st.data())
    def test_clean(self, plans, data):
        labels, dense = plans[:2]
        u = data.draw(st.sampled_from(dense.door_ids))
        cutoff = data.draw(_cutoffs(dense))
        assert list(labels.doors_by_distance(u, cutoff)) == list(
            dense.doors_by_distance(u, cutoff)
        )

    @SCAN_SETTINGS
    @given(data=st.data())
    def test_patched(self, plans, data):
        labels, dense = plans[2:]
        assert labels.door_ids == dense.door_ids
        u = data.draw(st.sampled_from(dense.door_ids))
        cutoff = data.draw(_cutoffs(dense))
        assert list(labels.doors_by_distance(u, cutoff)) == list(
            dense.doors_by_distance(u, cutoff)
        )

    def test_every_full_scan(self, plans):
        for labels, dense in (plans[:2], plans[2:]):
            for u in dense.door_ids:
                assert list(labels.doors_by_distance(u)) == list(
                    dense.doors_by_distance(u)
                )


class TestScanUnderFaults:
    @SCAN_SETTINGS
    @given(
        data=st.data(),
        mode=st.sampled_from(LABELS_MODES),
        count=st.integers(1, 6),
        seed=st.integers(0, 10_000),
    )
    def test_equals_the_reference_row(
        self, labels_framework, data, mode, count, seed
    ):
        index = labels_framework.distance_index
        u = data.draw(st.sampled_from(index.door_ids))
        handle = corrupt_labels(labels_framework, mode, count, seed)
        try:
            cutoff = data.draw(_cutoffs(index))
            # repr: NaN equals NaN, and floats keep every bit.
            assert repr(list(index.doors_by_distance(u, cutoff))) == repr(
                _reference_scan(index, u, cutoff)
            )
        finally:
            handle.undo()

    @pytest.mark.parametrize("seed", range(6))
    def test_every_door_and_cutoff_under_nan(self, labels_framework, seed):
        """A cut-off below a poisoned door's hub sum must not end the
        scan before the NaN tail: the row holds NaN there, not a
        distance past the cut-off."""
        index = labels_framework.distance_index
        handle = corrupt_labels(labels_framework, "nan", count=3, seed=seed)
        try:
            for u in index.door_ids:
                for cutoff in (None, 0.0, 3.0, 10.0, 25.0):
                    assert repr(list(index.doors_by_distance(u, cutoff))) == (
                        repr(_reference_scan(index, u, cutoff))
                    )
        finally:
            handle.undo()

    def test_nan_tail_comes_last_in_index_order(self, labels_framework):
        """A poisoned hub turns doors NaN: they follow every finite door,
        in index order, and only because no door is unreachable."""
        index = labels_framework.distance_index
        handle = corrupt_labels(labels_framework, "nan", count=3, seed=1)
        try:
            tails = 0
            for u in index.door_ids:
                scan = list(index.doors_by_distance(u))
                nan = [door for door, d in scan if math.isnan(d)]
                if not nan:
                    continue
                tails += 1
                assert len(scan) == index.size
                assert [door for door, _ in scan[-len(nan):]] == sorted(nan)
                assert (u, 0.0) in scan
            assert tails > 0
        finally:
            handle.undo()


def _door_sets(index):
    doors = st.sampled_from(index.door_ids)
    return st.tuples(
        st.lists(doors, min_size=1, max_size=6),
        st.lists(doors, min_size=1, max_size=12),
    )


class TestMinDistanceBetween:
    @SCAN_SETTINGS
    @given(data=st.data(), patched=st.booleans())
    def test_equals_pairwise_and_submatrix_minimum(self, plans, data, patched):
        labels, dense = plans[2:] if patched else plans[:2]
        sources, targets = data.draw(_door_sets(dense))
        best = labels.min_distance_between(sources, targets)
        assert best == min(
            labels.distance(s, t) for s in sources for t in targets
        )
        assert best == dense.min_distance_between(sources, targets)

    @SCAN_SETTINGS
    @given(
        data=st.data(),
        mode=st.sampled_from(LABELS_MODES),
        seed=st.integers(0, 10_000),
    )
    def test_faulted_labels_fold_one_row_per_source(
        self, labels_framework, data, mode, seed
    ):
        """Corrupted labels keep the row fold: a source whose row meets a
        NaN is passed over, and d(s, s) stays 0.0."""
        index = labels_framework.distance_index
        sources, targets = data.draw(_door_sets(index))
        handle = corrupt_labels(labels_framework, mode, count=4, seed=seed)
        try:
            expected = math.inf
            for s in sources:
                row = np.array([index.distance(s, t) for t in targets])
                expected = min(expected, float(row.min()))
            got = index.min_distance_between(sources, targets)
            assert repr(got) == repr(expected)
        finally:
            handle.undo()


def test_a_door_stays_zero_from_itself_under_skew(labels_framework):
    """Skewing every L_out entry lifts each self-hub sum to 7.5; the row
    pins d(u, u) to 0.0 and so must both label scans."""
    index = labels_framework.distance_index
    every = int(np.isfinite(index.labeling.out_dists).sum())
    handle = corrupt_labels(labels_framework, "skew", count=every, seed=0)
    try:
        ids = index.door_ids
        for u in ids:
            assert index.min_distance_between([u], [u, ids[0]]) == 0.0
            assert (u, 0.0) in list(index.doors_by_distance(u))
    finally:
        handle.undo()


def test_scans_build_no_row(plans, monkeypatch):
    """Only ``doors_unsorted`` (the no-index baseline) builds a row."""
    import repro.labels.index as module

    def forbidden(*args, **kwargs):
        raise AssertionError("a scan materialised a distance row")

    monkeypatch.setattr(module, "materialize_row", forbidden)
    for labels in (plans[0], plans[2]):
        ids = labels.door_ids
        for u in ids:
            list(labels.doors_by_distance(u))
        labels.min_distance_between(ids[:3], ids[-5:])
        with pytest.raises(AssertionError):
            list(labels.doors_unsorted(ids[0]))
