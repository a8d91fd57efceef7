"""WAL-driven incremental label repair through ``IndexFramework.rebuild``
(repro.labels.repair)."""

import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Segment, rectangle
from repro.index import IndexFramework, IndoorObject
from repro.index.framework import build_distance_backend
from repro.labels import MAX_PATCHES
from repro.model.figure1 import D15, ROOM_12, build_figure1
from repro.persist.wal import TopologyWAL, WalRecorder
from tests.queries.conftest import random_point_in
from tests.strategies import ROOM_SIZE, build_grid_plan

SHORTCUT = {
    "door_id": 99,
    "geometry": Segment(Point(4.0, 7.0), Point(4.0, 8.0)),
    "connects": (ROOM_12, 11),
}


def _recorder(space, directory) -> WalRecorder:
    return WalRecorder(space, TopologyWAL(Path(directory) / "wal.log", fsync=False))


def _assert_matches_dense(framework):
    """Every pair distance and every nearest-first scan order equals a
    dense rebuild of the current space."""
    dense = build_distance_backend(framework.space, "matrix")
    index = framework.distance_index
    assert index.door_ids == dense.door_ids
    for u in dense.door_ids:
        for v in dense.door_ids:
            assert index.distance(u, v) == dense.distance(u, v)
        assert list(index.doors_by_distance(u)) == list(
            dense.doors_by_distance(u)
        )


def _repaired(fresh, stale) -> bool:
    """True when ``fresh`` still answers from ``stale``'s labels (the
    repair path), False after a full rebuild."""
    return fresh.distance_index.labeling is stale.distance_index.labeling


@pytest.fixture
def figure1_labels():
    return IndexFramework.build(build_figure1(), backend="labels")


class TestRebuildWithRecords:
    def test_added_door_is_patched_not_rebuilt(self, figure1_labels, tmp_path):
        recorder = _recorder(figure1_labels.space, tmp_path)
        recorder.add_door(**SHORTCUT)
        fresh = figure1_labels.rebuild([recorder.last_record])
        assert _repaired(fresh, figure1_labels)
        assert fresh.is_fresh
        assert fresh.distance_index.patches.patch_ids == (99,)
        assert fresh.build_config == figure1_labels.build_config

    def test_patched_answers_match_a_full_dense_rebuild(
        self, figure1_labels, tmp_path
    ):
        """Repair is bit-identical: door-graph weights are exact, so the
        overlay's half-path sums equal the dense rebuild's Dijkstra fold
        on every pair, and every nearest-first scan order agrees."""
        recorder = _recorder(figure1_labels.space, tmp_path)
        recorder.add_door(**SHORTCUT)
        _assert_matches_dense(figure1_labels.rebuild([recorder.last_record]))

    def test_rebuild_without_records_drops_the_overlay(
        self, figure1_labels, tmp_path
    ):
        recorder = _recorder(figure1_labels.space, tmp_path)
        recorder.add_door(**SHORTCUT)
        repaired = figure1_labels.rebuild([recorder.last_record])
        recorder.add_partition(77, rectangle(40, 40, 44, 44))
        rebuilt = repaired.rebuild()
        assert rebuilt.distance_index.kind == "labels"
        assert rebuilt.distance_index.patch_count == 0
        _assert_matches_dense(rebuilt)

    def test_partition_only_mutation_keeps_the_index(
        self, figure1_labels, tmp_path
    ):
        recorder = _recorder(figure1_labels.space, tmp_path)
        recorder.add_partition(77, rectangle(40, 40, 44, 44))
        fresh = figure1_labels.rebuild([recorder.last_record])
        assert fresh.is_fresh
        assert fresh.distance_index is figure1_labels.distance_index

    def test_matrix_framework_rebuilds(self, tmp_path):
        framework = IndexFramework.build(build_figure1(), backend="matrix")
        recorder = _recorder(framework.space, tmp_path)
        recorder.add_door(**SHORTCUT)
        fresh = framework.rebuild([recorder.last_record])
        assert fresh.is_fresh
        assert fresh.distance_index.kind == "matrix"
        assert 99 in fresh.distance_index.door_ids

    def test_objects_keep_their_recorded_host_partition(self, tmp_path):
        space = build_figure1()
        rng = random.Random(7)
        indoor_ids = [p for p in space.partition_ids if p != 0]
        objects = [
            IndoorObject(i, random_point_in(space, rng, indoor_ids))
            for i in range(40)
        ]
        framework = IndexFramework.build(space, objects, backend="labels")
        recorder = _recorder(framework.space, tmp_path)
        recorder.add_door(**SHORTCUT)
        for fresh in (framework.rebuild([recorder.last_record]),
                      framework.rebuild()):
            assert len(fresh.objects) == len(framework.objects)
            for obj in framework.objects:
                assert fresh.objects.host_partition_id(
                    obj.object_id
                ) == framework.objects.host_partition_id(obj.object_id)


class TestFallback:
    """Every mutation the records do not account for, and every mutation
    no overlay can express, recomputes the labels from scratch."""

    def test_unlogged_mutation_is_an_epoch_gap(self, figure1_labels, tmp_path):
        recorder = _recorder(figure1_labels.space, tmp_path)
        recorder.add_door(**SHORTCUT)
        logged = recorder.last_record
        figure1_labels.space.add_door(
            98, Segment(Point(4.0, 8.5), Point(4.0, 9.5)), connects=(ROOM_12, 11)
        )
        fresh = figure1_labels.rebuild([logged])
        assert not _repaired(fresh, figure1_labels)
        assert fresh.distance_index.patch_count == 0
        assert fresh.is_fresh
        _assert_matches_dense(fresh)

    def test_no_records_for_a_mutation(self, figure1_labels):
        figure1_labels.space.add_door(**SHORTCUT)
        fresh = figure1_labels.rebuild([])
        assert not _repaired(fresh, figure1_labels)
        _assert_matches_dense(fresh)

    def test_remove_door_rebuilds(self, figure1_labels, tmp_path):
        recorder = _recorder(figure1_labels.space, tmp_path)
        recorder.remove_door(D15)
        fresh = figure1_labels.rebuild([recorder.last_record])
        assert not _repaired(fresh, figure1_labels)
        assert D15 not in fresh.distance_index.door_ids
        _assert_matches_dense(fresh)

    def test_patch_overflow_rebuilds(self, tmp_path):
        plan = build_grid_plan(3, 3, seed=5)
        framework = IndexFramework.build(plan.space, backend="labels")
        recorder = _recorder(plan.space, tmp_path)
        records = []
        for door_id, (a, b, offset) in enumerate(
            _door_slots()[: MAX_PATCHES + 1], start=1000
        ):
            recorder.add_door(door_id, _wall_door(a, b, offset), (_pid(a), _pid(b)))
            records.append(recorder.last_record)
        fresh = framework.rebuild(records)
        assert not _repaired(fresh, framework)
        assert fresh.distance_index.patch_count == 0
        _assert_matches_dense(fresh)

    def test_composed_repairs_past_the_budget_rebuild(self, tmp_path):
        plan = build_grid_plan(3, 3, seed=6)
        framework = IndexFramework.build(plan.space, backend="labels")
        recorder = _recorder(plan.space, tmp_path)
        slots = iter(enumerate(_door_slots(), start=1000))
        for batch in (MAX_PATCHES, 1):
            records = []
            for _ in range(batch):
                door_id, (a, b, offset) = next(slots)
                recorder.add_door(
                    door_id, _wall_door(a, b, offset), (_pid(a), _pid(b))
                )
                records.append(recorder.last_record)
            stale, framework = framework, framework.rebuild(records)
        assert not _repaired(framework, stale)
        _assert_matches_dense(framework)


# ----------------------------------------------------------------------
# Random WAL sequences on a 3 × 3 grid of rooms (tests/strategies.py)
# ----------------------------------------------------------------------
GRID = 3


def _pid(cell) -> int:
    col, row = cell
    if col == GRID:  # an annex added east of the grid at run time
        return 100 + row
    return row * GRID + col + 1


def _wall_door(a, b, offset) -> Segment:
    """A 1 m doorway on the wall shared by grid cells ``a`` and ``b``."""
    (ac, ar), (bc, br) = a, b
    if ac == bc:
        y = max(ar, br) * ROOM_SIZE
        x = ac * ROOM_SIZE + offset
        return Segment(Point(x - 0.5, y), Point(x + 0.5, y))
    x = max(ac, bc) * ROOM_SIZE
    y = ar * ROOM_SIZE + offset
    return Segment(Point(x, y - 0.5), Point(x, y + 0.5))


def _adjacent_pairs():
    """Every pair of grid cells that share a wall."""
    pairs = []
    for row in range(GRID):
        for col in range(GRID):
            if col + 1 < GRID:
                pairs.append(((col, row), (col + 1, row)))
            if row + 1 < GRID:
                pairs.append(((col, row), (col, row + 1)))
    return pairs


def _door_slots():
    """Distinct (cell, cell, offset) door slots inside the base grid."""
    return [
        (a, b, offset)
        for offset in (2.0, 4.0, 6.0, 8.0)
        for a, b in _adjacent_pairs()
    ]


_OPS = st.one_of(
    st.tuples(
        st.just("door"),
        st.integers(0, 4 * GRID * GRID),
        st.integers(1, 9),
        st.booleans(),
    ),
    st.tuples(st.just("annex"), st.integers(0, GRID - 1)),
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 10_000),
    batches=st.lists(
        st.lists(_OPS, min_size=1, max_size=4), min_size=2, max_size=3
    ),
    cumulative=st.booleans(),
)
def test_composed_repairs_equal_a_dense_rebuild(seed, batches, cumulative):
    """``add_door`` between adjacent partitions and ``add_partition``, in
    random WAL batches: after every ``rebuild(records)`` the repaired
    labels answer every pair and every scan order exactly like a dense
    rebuild — through composed repairs, whether each call sees only its
    own batch or the whole log (records at or below the built epoch are
    ignored)."""
    plan = build_grid_plan(GRID, GRID, seed)
    framework = IndexFramework.build(plan.space, backend="labels")
    base_labels = framework.distance_index.labeling
    annexes = set()
    next_door = 1000
    log = []
    with tempfile.TemporaryDirectory() as directory:
        recorder = _recorder(plan.space, directory)
        for batch in batches:
            records = []
            for op in batch:
                if op[0] == "annex":
                    row = op[1]
                    if row in annexes:
                        continue
                    recorder.add_partition(
                        _pid((GRID, row)),
                        rectangle(
                            GRID * ROOM_SIZE,
                            row * ROOM_SIZE,
                            (GRID + 1) * ROOM_SIZE,
                            (row + 1) * ROOM_SIZE,
                        ),
                    )
                    annexes.add(row)
                else:
                    _, pick, offset, one_way = op
                    pairs = _adjacent_pairs() + [
                        ((GRID - 1, row), (GRID, row)) for row in sorted(annexes)
                    ]
                    a, b = pairs[pick % len(pairs)]
                    recorder.add_door(
                        next_door,
                        _wall_door(a, b, float(offset)),
                        (_pid(a), _pid(b)),
                        one_way=one_way,
                    )
                    next_door += 1
                records.append(recorder.last_record)
            log.extend(records)
            framework = framework.rebuild(log if cumulative else records)
            assert framework.is_fresh
            assert framework.distance_index.labeling is base_labels
            _assert_matches_dense(framework)
