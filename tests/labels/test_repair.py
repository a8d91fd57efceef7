"""WAL-driven incremental label repair (repro.labels.repair)."""

from types import SimpleNamespace

import pytest

from repro.geometry import Point, Segment, rectangle
from repro.index import IndexFramework
from repro.labels import repair_framework, repair_labels
from repro.model.figure1 import ROOM_12, build_figure1


def _add_shortcut_door(space):
    """A new door between room 12 and partition 11 — only *adds* door-graph
    edges, so the incremental patch path applies."""
    space.add_door(
        99,
        Segment(Point(4.0, 7.0), Point(4.0, 8.0)),
        connects=(ROOM_12, 11),
    )


@pytest.fixture
def stale_labels_framework():
    space = build_figure1()
    framework = IndexFramework.build(space, backend="labels")
    _add_shortcut_door(space)
    return framework


class TestRepairFramework:
    def test_added_door_is_patched_not_rebuilt(self, stale_labels_framework):
        repaired, outcome = repair_framework(stale_labels_framework)
        assert outcome.repaired
        assert 99 in outcome.patch_hubs
        assert repaired.is_fresh
        assert 99 in repaired.distance_index.door_ids
        assert repaired.distance_index.patch_count >= 1

    def test_patched_answers_match_a_full_dense_rebuild(
        self, stale_labels_framework
    ):
        """Repair is bit-identical: door-graph weights are exact, so the
        overlay's half-path sums equal the dense rebuild's Dijkstra fold
        on every pair, and every nearest-first scan order agrees."""
        repaired, outcome = repair_framework(stale_labels_framework)
        assert outcome.repaired
        reference = IndexFramework.build(
            repaired.space, backend="matrix"
        ).distance_index
        for u in reference.door_ids:
            for v in reference.door_ids:
                assert repaired.distance_index.distance(
                    u, v
                ) == reference.distance(u, v)
        for u in reference.door_ids:
            assert list(repaired.distance_index.doors_by_distance(u)) == list(
                reference.doors_by_distance(u)
            )

    def test_rebuild_after_repair_restores_bit_identity(
        self, stale_labels_framework
    ):
        """A full rebuild drops the overlay and stays bitwise equal to the
        dense backend, scan order included."""
        repaired, _ = repair_framework(stale_labels_framework)
        rebuilt = repaired.rebuild()
        assert rebuilt.distance_index.kind == "labels"
        assert rebuilt.distance_index.patch_count == 0
        reference = IndexFramework.build(
            rebuilt.space, backend="matrix"
        ).distance_index
        for u in reference.door_ids:
            assert list(rebuilt.distance_index.doors_by_distance(u)) == list(
                reference.doors_by_distance(u)
            )

    def test_remove_door_record_forces_rebuild(self):
        space = build_figure1()
        framework = IndexFramework.build(space, backend="labels")
        _add_shortcut_door(space)
        repaired, outcome = repair_framework(
            framework, records=[SimpleNamespace(op="remove_door")]
        )
        assert not outcome.repaired
        assert "remove_door" in outcome.reason
        assert repaired.is_fresh  # rebuilt instead
        assert repaired.distance_index.patch_count == 0

    def test_max_patches_forces_rebuild(self, stale_labels_framework):
        repaired, outcome = repair_framework(
            stale_labels_framework, max_patches=0
        )
        assert not outcome.repaired
        assert "max_patches" in outcome.reason
        assert repaired.is_fresh

    def test_rebuild_fallback_preserves_the_labels_backend(
        self, stale_labels_framework
    ):
        repaired, _ = repair_framework(stale_labels_framework, max_patches=0)
        assert repaired.distance_index.kind == "labels"

    def test_matrix_framework_has_no_repair_path(self):
        space = build_figure1()
        framework = IndexFramework.build(space, backend="matrix")
        _add_shortcut_door(space)
        repaired, outcome = repair_framework(framework)
        assert not outcome.repaired
        assert "no repair path" in outcome.reason
        assert repaired.is_fresh
        assert repaired.distance_index.kind == "matrix"

    def test_partition_only_mutation_needs_no_patch(self):
        space = build_figure1()
        framework = IndexFramework.build(space, backend="labels")
        space.add_partition(77, rectangle(40, 40, 44, 44))
        repaired, outcome = repair_framework(framework)
        assert outcome.repaired
        assert "unchanged" in outcome.reason
        assert repaired.is_fresh
        assert repaired.distance_index.patch_count == 0


class TestRepairLabels:
    def test_removed_door_returns_none(self):
        space = build_figure1()
        framework = IndexFramework.build(space, backend="labels")
        from repro.model.figure1 import D15

        space.remove_door(D15)
        graph = space.distance_graph
        graph.precompute()
        repaired, outcome = repair_labels(
            framework.distance_index, graph
        )
        assert repaired is None
        assert "removed" in outcome.reason

    def test_cone_is_reported(self):
        space = build_figure1()
        framework = IndexFramework.build(space, backend="labels")
        _add_shortcut_door(space)
        graph = space.distance_graph
        graph.precompute()
        repaired, outcome = repair_labels(framework.distance_index, graph)
        assert repaired is not None
        assert outcome.cone_size >= 0
