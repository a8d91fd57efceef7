"""LabeledDistanceIndex: bit-identity with the dense matrix backend."""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from repro.exceptions import UnknownEntityError
from repro.index.backend import DistanceBackend, validate_backend
from repro.labels import LabeledDistanceIndex
from repro.synthetic import BuildingConfig, generate_building


class TestBitIdentity:
    def test_all_pairs_bitwise_equal(self, building_pair):
        labels, dense = building_pair
        ids = dense.distance_index.door_ids
        for u in ids:
            for v in ids:
                assert labels.distance_index.distance(
                    u, v
                ) == dense.distance_index.distance(u, v)

    def test_scan_order_identical(self, building_pair):
        """doors_by_distance must replay the dense M_idx scan exactly —
        Algorithms 2-6 depend on the order, not just the values."""
        labels, dense = building_pair
        for u in dense.distance_index.door_ids:
            assert list(labels.distance_index.doors_by_distance(u)) == list(
                dense.distance_index.doors_by_distance(u)
            )

    def test_scan_respects_max_distance(self, building_pair):
        labels, dense = building_pair
        u = dense.distance_index.door_ids[0]
        assert list(
            labels.distance_index.doors_by_distance(u, max_distance=12.0)
        ) == list(dense.distance_index.doors_by_distance(u, max_distance=12.0))

    def test_unsorted_scan_identical(self, building_pair):
        labels, dense = building_pair
        u = dense.distance_index.door_ids[-1]
        assert list(labels.distance_index.doors_unsorted(u)) == list(
            dense.distance_index.doors_unsorted(u)
        )

    def test_nearest_doors_identical(self, building_pair):
        labels, dense = building_pair
        for u in dense.distance_index.door_ids[:8]:
            assert labels.distance_index.nearest_doors(
                u, 5
            ) == dense.distance_index.nearest_doors(u, 5)

    def test_min_distance_between_identical(self, building_pair):
        labels, dense = building_pair
        ids = dense.distance_index.door_ids
        front, back = list(ids[:3]), list(ids[-3:])
        assert labels.distance_index.min_distance_between(
            front, back
        ) == dense.distance_index.min_distance_between(front, back)

    def test_figure1_directed_asymmetry_preserved(self, figure1_pair):
        """Figure 1 contains a one-way door, so d(u,v) != d(v,u) for some
        pair; the labeling must reproduce the asymmetry, not smooth it."""
        labels, dense = figure1_pair
        ids = dense.distance_index.door_ids
        asymmetric = [
            (u, v)
            for u in ids
            for v in ids
            if dense.distance_index.distance(u, v)
            != dense.distance_index.distance(v, u)
        ]
        assert asymmetric
        for u, v in asymmetric:
            assert labels.distance_index.distance(
                u, v
            ) == dense.distance_index.distance(u, v)


class TestBackendSurface:
    def test_satisfies_the_protocol(self, building_pair):
        labels, dense = building_pair
        assert isinstance(labels.distance_index, DistanceBackend)
        assert isinstance(dense.distance_index, DistanceBackend)
        assert labels.distance_index.kind == "labels"
        assert dense.distance_index.kind == "matrix"

    def test_validate_backend_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown distance backend"):
            validate_backend("btree")

    def test_unknown_door_raises(self, building_pair):
        labels, _ = building_pair
        with pytest.raises(UnknownEntityError):
            labels.distance_index.distance(999_999, 1)
        with pytest.raises(UnknownEntityError):
            labels.distance_index.min_distance_between([999_999], [1])

    def test_self_distance_is_zero(self, building_pair):
        labels, _ = building_pair
        for u in labels.distance_index.door_ids:
            assert labels.distance_index.distance(u, u) == 0.0

    def test_empty_set_bound_is_inf(self, building_pair):
        labels, _ = building_pair
        u = labels.distance_index.door_ids[0]
        assert math.isinf(labels.distance_index.min_distance_between([], [u]))
        assert math.isinf(labels.distance_index.min_distance_between([u], []))


class TestAccounting:
    def test_memory_report_components(self, building_pair):
        labels, dense = building_pair
        report = labels.distance_index.memory_report()
        assert report["labels_bytes"] > 0
        assert report["hierarchy_bytes"] > 0
        assert report["label_entries"] > 0
        assert report["patch_hubs"] == 0
        assert labels.distance_index.memory_bytes() >= report["labels_bytes"]

    def test_memory_bytes_matches_what_the_build_retains(self):
        """``memory_bytes()`` is an honest resident figure: within 20% of
        the bytes tracemalloc sees the build keep alive."""
        graph = generate_building(BuildingConfig(floors=10)).space.distance_graph
        graph.precompute()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            index = LabeledDistanceIndex.build(graph)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert index.memory_bytes() == pytest.approx(retained, rel=0.20)

    def test_labels_beat_the_matrix_even_here(self, building_pair):
        """Already at ~34 doors the labeling should not be catastrophically
        larger; the campus-scale win is benchmarked, not unit-tested."""
        labels, dense = building_pair
        assert labels.distance_index.memory_bytes() < 20 * (
            dense.distance_index.memory_bytes()
        )

    def test_self_check_clean(self, building_pair):
        labels, _ = building_pair
        assert labels.distance_index.self_check() == []

    def test_self_check_catches_nan(self, figure1_pair):
        labels, _ = figure1_pair
        index = labels.distance_index
        dists = index.labeling.out_dists
        finite = np.flatnonzero(np.isfinite(dists))
        keep = float(dists[finite[0]])
        dists[finite[0]] = np.nan
        try:
            assert any(
                "NaN" in issue for issue in index.self_check()
            )
        finally:
            dists[finite[0]] = keep

    def test_drop_row_cache(self, figure1_pair):
        labels, _ = figure1_pair
        index = labels.distance_index
        u = index.door_ids[0]
        list(index.doors_by_distance(u))
        assert index.memory_report()["row_cache_bytes"] > 0
        index.drop_row_cache()
        assert index.memory_report()["row_cache_bytes"] == 0
