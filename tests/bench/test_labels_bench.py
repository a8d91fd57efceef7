"""The labels-vs-dense benchmark harness (repro.bench.labels)."""

import pytest

from repro.bench.labels import (
    DENSE_BYTES_PER_CELL,
    LABELS_CAMPUS,
    LABELS_QUICK,
    measure_labels,
    render_labels_summary,
)


@pytest.fixture(scope="module")
def quick_result():
    return measure_labels(LABELS_QUICK, seed=13)


class TestScales:
    def test_campus_skips_the_dense_build(self):
        assert LABELS_CAMPUS.build_dense is False
        assert LABELS_QUICK.build_dense is True


class TestMeasure:
    def test_zero_mismatches_against_the_canonical_reference(
        self, quick_result
    ):
        assert quick_result["mismatches"] == 0
        assert quick_result["sampled_pairs"] == LABELS_QUICK.sample_pairs

    def test_metrics_are_populated(self, quick_result):
        labels = quick_result["labels"]
        dense = quick_result["dense"]
        assert labels["bytes"] > 0
        assert labels["measured_bytes"] == pytest.approx(
            labels["bytes"], rel=0.20
        )
        assert labels["build_s"] > 0
        assert labels["query_us"] > 0
        assert dense["built"] is True
        assert dense["bytes"] == (
            quick_result["doors"] ** 2 * DENSE_BYTES_PER_CELL
        )
        assert quick_result["bytes_ratio"] == pytest.approx(
            dense["bytes"] / labels["bytes"]
        )

    def test_summary_renders_both_backends(self, quick_result):
        text = render_labels_summary(quick_result)
        assert "labels" in text
        assert "dense" in text
        assert "mismatches" in text
