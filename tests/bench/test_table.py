"""The benchmark table: one record drives a subcommand, its exit code
and its part of the regression gate."""

import copy
import dataclasses
import json

import pytest

from repro.bench import table
from repro.bench.gate import run_gate
from repro.bench.table import BENCHES, hard_checks, lookup
from repro.cli import build_parser
from repro.cli import main as repro_main
from tests.bench.conftest import ROOT, committed, violate


HARD = [
    pytest.param(spec, check, id=f"{spec.name}:{check[0]}")
    for spec in BENCHES
    for check in spec.hard
]


def _stub(monkeypatch, spec, result):
    """Install ``spec`` as the only record, measuring to ``result``."""
    seen = []

    def measure(scale, seed):
        seen.append((scale, seed))
        return copy.deepcopy(result)

    monkeypatch.setattr(
        table, "BENCHES", (dataclasses.replace(spec, measure=measure),)
    )
    return seen


def test_names_and_artifacts_are_unique():
    assert len({spec.name for spec in BENCHES}) == len(BENCHES)
    assert len({spec.artifact for spec in BENCHES}) == len(BENCHES)


@pytest.mark.parametrize("spec", BENCHES, ids=[spec.name for spec in BENCHES])
class TestRecords:
    def test_gated_paths_resolve_in_the_committed_artifact(self, spec):
        result = committed(spec)
        for path in spec.ratios:
            assert isinstance(lookup(result, path), (int, float)), path
        for path, op, limit in spec.hard:
            assert op in ("==", "<=", ">=")
            assert isinstance(lookup(result, path), (int, float)), path
            if isinstance(limit, str):
                assert isinstance(lookup(result, limit), (int, float)), limit

    def test_committed_artifact_passes_its_hard_checks(self, spec):
        assert all(check["ok"] for check in hard_checks(spec, committed(spec)))

    def test_committed_artifact_names_a_declared_scale(self, spec):
        result = committed(spec)
        assert result["scale"] in spec.scales
        assert spec.scale(result["scale"]).name == result["scale"]

    def test_quick_is_the_default_scale(self, spec, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert spec.scale() is spec.scales["quick"]

    def test_env_selects_every_named_scale(self, spec, monkeypatch):
        for name, scale in spec.scales.items():
            monkeypatch.setenv("REPRO_BENCH_SCALE", f" {name.upper()} ")
            assert spec.scale() is scale

    def test_unknown_scale_falls_back_to_quick(self, spec, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "galactic")
        assert spec.scale() is spec.scales["quick"]
        assert spec.scale("galactic") is spec.scales["quick"]

    def test_record_is_a_subcommand(self, spec):
        args = build_parser().parse_args([spec.name, "--seed", "3"])
        assert args.spec is spec
        assert args.seed == 3
        assert args.json is None

    def test_passing_result_exits_zero_and_passes_the_gate(
        self, spec, monkeypatch, tmp_path, capsys
    ):
        result = committed(spec)
        seen = _stub(monkeypatch, spec, result)
        target = tmp_path / "out.json"
        assert repro_main([spec.name, "--json", str(target)]) == 0
        assert json.loads(target.read_text()) == result
        assert spec.name.split("-")[0] in capsys.readouterr().out
        (tmp_path / spec.artifact).write_text(json.dumps(result))
        assert run_gate(root=tmp_path)["ok"] is True
        # The gate replays the committed scale and seed.
        assert seen[-1] == (spec.scale(result["scale"]), result["seed"])


@pytest.mark.parametrize("spec, check", HARD)
def test_one_hard_check_fails_the_subcommand_and_the_gate(
    spec, check, monkeypatch, tmp_path, capsys
):
    result = committed(spec)
    _stub(monkeypatch, spec, violate(result, check))
    assert repro_main([spec.name, "--seed", "0"]) == 1
    assert f"FAIL  {check[0]}" in capsys.readouterr().out
    (tmp_path / spec.artifact).write_text(json.dumps(result))
    report = run_gate(root=tmp_path)
    assert report["ok"] is False
    assert [c["metric"] for c in report["checks"] if not c["ok"]] == [check[0]]



@pytest.mark.parametrize("spec", BENCHES, ids=[spec.name for spec in BENCHES])
def test_readme_row_matches_the_record(spec):
    readme = (ROOT / "README.md").read_text().splitlines()
    (row,) = [line for line in readme if line.startswith(f"| `{spec.name}` |")]
    for path in (spec.artifact, *spec.ratios, *(check[0] for check in spec.hard)):
        assert f"`{path}`" in row, path
