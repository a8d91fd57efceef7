"""The benchmark regression gate (``python -m repro bench --gate``)."""

import pytest

from repro.bench.gate import (
    DEFAULT_TOLERANCE,
    compare_benchmarks,
    render_gate_report,
    run_gate,
)
from repro.bench.table import BENCHES, lookup
from tests.bench.conftest import committed, violate, with_value

SPECS = {spec.artifact: spec for spec in BENCHES}

#: Every metric the gate reports per artifact: the ratio paths plus the
#: hard checks, which are also the subcommand's exit conditions.
GATED = {
    "BENCH_serve.json": {"speedup", "mismatches"},
    "BENCH_shard.json": {
        "speedup",
        "speedup_vs_service",
        "mismatches",
        "sharded.degraded",
    },
    "BENCH_labels.json": {"bytes_ratio", "mismatches"},
    "BENCH_overload.json": {
        "protected.goodput_ratio_capped",
        "protected.slo_attainment",
        "mismatches",
        "protected.p99_ms",
        "protected.goodput_ratio",
    },
    "BENCH_reconfig.json": {
        "rolling.availability",
        "rolling.answered_fraction",
        "rolling.mismatches",
        "rolling.epoch_mix_violations",
        "rolling.unavailable",
    },
}

SERVE = SPECS["BENCH_serve.json"]


def _serve_result(speedup=2.0, mismatches=0):
    return {"speedup": speedup, "mismatches": mismatches}


def test_every_record_is_gated():
    assert set(SPECS) == set(GATED)


@pytest.mark.parametrize("artifact", sorted(GATED))
class TestEveryArtifact:
    def test_gates_exactly_the_declared_metrics(self, artifact):
        result = committed(SPECS[artifact])
        checks = compare_benchmarks(SPECS[artifact], result, result)
        assert {check["metric"] for check in checks} == GATED[artifact]
        assert all(check["ok"] for check in checks)

    def test_ratios_fail_only_below_the_floor(self, artifact):
        spec = SPECS[artifact]
        result = committed(spec)
        for path in spec.ratios:
            value = lookup(result, path)
            for factor, ok in ((0.85, True), (0.75, False), (9.0, True)):
                fresh = with_value(result, path, value * factor)
                check = next(
                    c for c in compare_benchmarks(spec, result, fresh)
                    if c["metric"] == path
                )
                assert check["kind"] == "ratio"
                assert check["ok"] is ok, (path, factor)

    def test_hard_checks_have_no_tolerance(self, artifact):
        spec = SPECS[artifact]
        result = committed(spec)
        for check in spec.hard:
            fresh = violate(result, check)
            failing = [
                c for c in compare_benchmarks(spec, result, fresh, tolerance=0.99)
                if not c["ok"]
            ]
            assert [(c["metric"], c["kind"]) for c in failing] == [
                (check[0], "hard")
            ]


class TestCompareBenchmarks:
    def test_ratio_floor_is_committed_times_one_minus_tolerance(self):
        checks = compare_benchmarks(SERVE, _serve_result(2.0), _serve_result(1.5))
        ratio = next(c for c in checks if c["metric"] == "speedup")
        assert not ratio["ok"]
        assert ratio["committed"] == 2.0
        assert "floor 1.600" in ratio["detail"]

    def test_hard_check_detail_names_the_bound(self):
        checks = compare_benchmarks(
            SERVE, _serve_result(), _serve_result(mismatches=3)
        )
        exact = next(c for c in checks if c["metric"] == "mismatches")
        assert exact["committed"] == 0
        assert exact["fresh"] == 3
        assert exact["detail"] == "must be == 0, measured 3"

    def test_a_path_valued_bound_reads_the_fresh_result(self):
        overload = SPECS["BENCH_overload.json"]
        result = committed(overload)
        fresh = with_value(result, "slo_ms", 1.0)
        p99 = next(
            c for c in compare_benchmarks(overload, result, fresh)
            if c["metric"] == "protected.p99_ms"
        )
        assert not p99["ok"]
        assert p99["committed"] == 1.0
        assert "(slo_ms)" in p99["detail"]


class TestRunGate:
    def test_missing_artifacts_are_skipped_not_failed(self, tmp_path):
        report = run_gate(root=tmp_path)
        assert report["ok"] is True
        assert report["checks"] == []
        assert report["skipped"] == [spec.artifact for spec in BENCHES]


class TestRendering:
    def test_report_lines_and_verdict(self):
        checks = compare_benchmarks(SERVE, _serve_result(2.0), _serve_result(1.0))
        text = render_gate_report(
            {"ok": False, "checks": checks, "skipped": ["BENCH_shard.json"]}
        )
        assert "FAIL  BENCH_serve.json  speedup" in text
        assert "SKIP  BENCH_shard.json" in text
        assert text.endswith("GATE FAIL")

    def test_default_tolerance_is_twenty_percent(self):
        assert DEFAULT_TOLERANCE == pytest.approx(0.20)
