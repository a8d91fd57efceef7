"""serve-bench plumbing: workload determinism, exactness, JSON output."""

import dataclasses
import json

from repro.bench import table
from repro.bench.serve import (
    ServeScale,
    build_serve_workload,
    measure_serve,
    render_serve_summary,
)
from repro.cli import main as repro_main
from repro.synthetic import BuildingConfig, generate_building

TINY = ServeScale(
    name="tiny",
    floors=2,
    objects=60,
    distinct_positions=6,
    total_requests=36,
    workers=2,
    max_batch=8,
    knn_k=3,
    range_radius=10.0,
)

(SERVE,) = [spec for spec in table.BENCHES if spec.name == "serve-bench"]


class TestWorkload:
    def test_deterministic_per_seed(self):
        building = generate_building(BuildingConfig(floors=TINY.floors))
        a = build_serve_workload(building, TINY, seed=3)
        b = build_serve_workload(building, TINY, seed=3)
        assert [r.cache_key() for r in a] == [r.cache_key() for r in b]

    def test_length_and_repetition(self):
        building = generate_building(BuildingConfig(floors=TINY.floors))
        requests = build_serve_workload(building, TINY, seed=0)
        assert len(requests) == TINY.total_requests
        # Zipf-ish: strictly fewer distinct keys than requests.
        assert len({r.cache_key() for r in requests}) < len(requests)


class TestMeasure:
    def test_exactness_and_result_shape(self):
        result = measure_serve(TINY, seed=1)
        assert result["mismatches"] == 0
        assert result["requests"] == TINY.total_requests
        assert result["naive"]["qps"] > 0
        assert result["service"]["qps"] > 0
        assert 0.0 <= result["cache"]["hit_rate"] <= 1.0
        assert "serve.latency_ms" in result["latency"]
        summary = render_serve_summary(result)
        assert "speedup" in summary and "mismatches: 0" in summary

    def test_cli_writes_json(self, tmp_path, monkeypatch, capsys):
        tiny = dataclasses.replace(SERVE, scales={"quick": TINY})
        monkeypatch.setattr(table, "BENCHES", (tiny,))
        target = tmp_path / "bench.json"
        assert repro_main(["serve-bench", "--json", str(target), "--seed", "2"]) == 0
        payload = json.loads(target.read_text())
        assert payload["mismatches"] == 0
        assert payload["scale"] == "tiny"
        out = capsys.readouterr().out
        assert "serve-bench" in out
