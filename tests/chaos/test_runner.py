"""The campaign engine end-to-end: determinism, the composed standard
campaign, the silent-wrong-answer demonstration, and what a failed final
probe reports."""

import pytest

from repro.chaos import (
    CampaignConfig,
    CampaignReport,
    CampaignRunner,
    FaultAction,
    FaultPlan,
    IncidentClass,
)
from repro.model.figure1 import build_figure1
from repro.runtime.ladder import QualityLevel
from repro.serve.requests import QueryResponse
from repro.synthetic.workload import query_workload

CORRUPT_ONLY = FaultPlan([
    FaultAction(
        2, "corrupt_md2d", {"mode": "nan", "count": 4, "seed": 5}, label="x"
    ),
])


def _run(**overrides):
    config = CampaignConfig(**overrides)
    return CampaignRunner(config).run()


@pytest.fixture(scope="module")
def standard_report():
    return _run(seed=3, duration_ops=120)


class TestDeterminism:
    def test_same_config_reproduces_the_digest(self, standard_report):
        again = _run(seed=3, duration_ops=120)
        assert again.digest == standard_report.digest
        assert (
            [i.to_dict() for i in again.incidents]
            == [i.to_dict() for i in standard_report.incidents]
        )

    def test_different_seed_differs(self, standard_report):
        other = _run(seed=4, duration_ops=120)
        assert other.digest != standard_report.digest


class TestStandardCampaign:
    def test_passes_with_zero_silent_wrong_answers(self, standard_report):
        counts = standard_report.counts()
        assert standard_report.verdict == "PASS"
        assert counts["silent_wrong_answer"] == 0
        assert counts["unrecovered"] == 0
        assert counts["degraded_correctly"] > 0
        assert counts["recovered"] > 0

    def test_composed_scenario_left_its_footprints(self, standard_report):
        kinds = {i.kind for i in standard_report.incidents}
        # Breaker fallback windows, the injected crash, the quarantined
        # snapshot, the torn WAL tail, and the supervised restart all show
        # up in the incident trace of the standard plan.
        for expected in (
            "breaker_degraded",
            "injected_crash",
            "quarantined",
            "wal_torn_tail",
            "restarted",
        ):
            assert expected in kinds, expected

    def test_executes_the_whole_workload(self, standard_report):
        assert standard_report.ops_executed == 120
        assert standard_report.latency_ms  # per-rung percentiles recorded
        assert standard_report.breaker.get("state") is not None


class TestSilentWrongAnswer:
    def test_unguarded_corruption_fails_the_campaign(self):
        report = _run(
            seed=0,
            duration_ops=40,
            plan=CORRUPT_ONLY,
            integrity_gate=False,
            breaker=False,
        )
        assert report.verdict == "FAIL"
        assert not report.passed
        silent = [
            i for i in report.incidents
            if i.classification is IncidentClass.SILENT_WRONG_ANSWER
        ]
        assert silent
        assert all(i.kind == "oracle_violation" for i in silent)

    def test_guarded_corruption_degrades_instead(self):
        report = _run(seed=0, duration_ops=40, plan=CORRUPT_ONLY)
        assert report.verdict == "PASS"
        assert report.counts()["silent_wrong_answer"] == 0
        assert report.counts()["degraded_correctly"] > 0


class TestConfigAndReportRoundtrips:
    def test_config_dict_roundtrip(self):
        config = CampaignConfig(
            seed=9, duration_ops=50, plan=CORRUPT_ONLY, breaker=False
        )
        restored = CampaignConfig.from_dict(config.to_dict())
        assert restored.seed == 9
        assert restored.duration_ops == 50
        assert restored.breaker is False
        assert restored.resolved_plan().actions == CORRUPT_ONLY.actions

    def test_report_save_load_roundtrip(self, standard_report, tmp_path):
        path = standard_report.save(tmp_path / "report.json")
        loaded = CampaignReport.load(path)
        assert loaded.digest == standard_report.digest
        assert loaded.verdict == standard_report.verdict
        assert (
            [i.to_dict() for i in loaded.incidents]
            == [i.to_dict() for i in standard_report.incidents]
        )
        # The embedded config replays to the same digest.
        replayed = CampaignRunner(
            CampaignConfig.from_dict(loaded.config)
        ).run()
        assert replayed.digest == standard_report.digest

    def test_unknown_building_rejected(self):
        with pytest.raises(ValueError, match="unknown building"):
            _run(building="escher")


class _DegradedService:
    """A serving tier stub whose every answer is a partial sharded one."""

    def execute(self, request):
        return QueryResponse(
            request=request,
            value=[],
            quality=QualityLevel.EUCLIDEAN,
            served_epoch=2,
            breaker=True,
            missing_shards=(1,),
            reply_epochs=(2, 3),
        )


class TestFinalProbe:
    def test_inexact_answer_names_why(self):
        """A failed probe says which shards were missing, which epochs
        replied and how the request was routed, not only the rung."""
        runner = CampaignRunner(CampaignConfig(duration_ops=5))
        runner._service = _DegradedService()
        ops = query_workload(build_figure1(), 2, seed=0)
        runner._final_probe(ops, None)
        (incident,) = runner._incidents
        assert incident.classification is IncidentClass.UNRECOVERED
        assert incident.detail == "; ".join(
            f"op {op.index} served at EUCLIDEAN (missing_shards=[1], "
            "reply_epochs=[2, 3], breaker=True, shed=False, cached=False)"
            for op in ops
        )
