"""The bench harness: BENCH_pipeline.json, drift classification, CLI."""

import copy
import json

import pytest

from repro import cli
from repro.analysis.suite import STAGE_NAMES
from repro.obs.bench import (
    BENCH_SCHEMA,
    IMPROVED,
    MIN_STAGE_WALL_SECONDS,
    REGRESSED,
    WITHIN_NOISE,
    BenchError,
    compare_bench,
    env_fingerprint,
    load_baseline,
    run_bench,
    write_bench,
)


@pytest.fixture(scope="module")
def bench_result():
    """One real (tiny) bench run shared by the schema tests."""
    return run_bench(rounds=1, scale=0.01, iterations=1, seed=99)


def _doctored(bench: dict, factor: float) -> dict:
    """A copy of a bench dict with every wall metric scaled by ``factor``."""
    other = copy.deepcopy(bench)
    summary = other["totals"]["wall_seconds"]
    for key in ("median", "p95", "min", "max"):
        summary[key] = round(summary[key] * factor, 6)
    wall = summary["median"]
    pages, records = other["totals"]["pages"], other["totals"]["records"]
    other["totals"]["pages_per_second_median"] = round(
        pages / wall, 3) if wall else 0.0
    other["totals"]["records_per_second_median"] = round(
        records / wall, 3) if wall else 0.0
    for stage in other["stages"].values():
        stage["wall_median"] = round(stage["wall_median"] * factor, 6)
        stage["wall_p95"] = round(stage["wall_p95"] * factor, 6)
    return other


class TestRunBench:
    def test_schema_and_sections(self, bench_result):
        assert bench_result["schema"] == BENCH_SCHEMA
        assert bench_result["config"]["scale"] == 0.01
        assert bench_result["config"]["rounds"] == 1
        assert bench_result["totals"]["pages"] > 0
        assert bench_result["totals"]["records"] > 0
        assert bench_result["totals"]["wall_seconds"]["median"] > 0
        assert bench_result["totals"]["pages_per_second_median"] > 0

    def test_stages_cover_pipeline_and_analysis(self, bench_result):
        stages = bench_result["stages"]
        assert "iteration_crawl" in stages
        for name in STAGE_NAMES:
            assert f"stage.{name}" in stages, name
        crawl = stages["iteration_crawl"]
        assert crawl["wall_median"] >= 0
        assert crawl["sim_seconds"] > 0

    def test_memory_round_recorded(self, bench_result):
        memory = bench_result["totals"]["memory"]
        assert memory["tracemalloc_peak_bytes"] > 0
        assert "mem_peak_bytes" in bench_result["stages"]["iteration_crawl"]

    def test_env_fingerprint_present(self, bench_result):
        env = bench_result["env"]
        assert env["python"] == env_fingerprint()["python"]
        assert env["cpu_count"] >= 1

    def test_round_trip_via_file(self, bench_result, tmp_path):
        path = str(tmp_path / "BENCH_pipeline.json")
        write_bench(path, bench_result)
        assert load_baseline(path)["schema"] == BENCH_SCHEMA


class TestLoadBaseline:
    def test_missing_baseline(self, tmp_path):
        with pytest.raises(BenchError, match="no bench baseline"):
            load_baseline(str(tmp_path / "nope.json"))

    def test_corrupt_baseline(self, tmp_path):
        path = tmp_path / "BENCH_pipeline.json"
        path.write_text("{ not json")
        with pytest.raises(BenchError, match="corrupt"):
            load_baseline(str(path))

    def test_wrong_schema(self, tmp_path):
        path = tmp_path / "BENCH_pipeline.json"
        path.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(BenchError, match="schema"):
            load_baseline(str(path))


class TestCompare:
    def test_identical_runs_are_within_noise(self, bench_result):
        comparison = compare_bench(bench_result, bench_result, tolerance=0.25)
        assert not comparison.regressed
        assert all(d.verdict == WITHIN_NOISE for d in comparison.drifts)

    def test_injected_regression_detected(self, bench_result):
        # Current run 3x slower than the doctored-fast baseline.
        baseline = _doctored(bench_result, 1 / 3)
        comparison = compare_bench(baseline, bench_result, tolerance=0.25)
        assert comparison.regressed
        regressed = {d.name for d in comparison.drifts
                     if d.verdict == REGRESSED}
        assert "total_wall_seconds_median" in regressed
        assert "pages_per_second_median" in regressed

    def test_improvement_detected(self, bench_result):
        baseline = _doctored(bench_result, 3.0)
        comparison = compare_bench(baseline, bench_result, tolerance=0.25)
        assert not comparison.regressed
        improved = {d.name for d in comparison.drifts
                    if d.verdict == IMPROVED}
        assert "total_wall_seconds_median" in improved

    def test_fast_stages_stay_within_noise(self, bench_result):
        baseline = _doctored(bench_result, 1 / 3)
        comparison = compare_bench(baseline, bench_result, tolerance=0.25)
        for drift in comparison.drifts:
            if not drift.name.startswith("stage:"):
                continue
            if drift.baseline < MIN_STAGE_WALL_SECONDS:
                assert drift.verdict == WITHIN_NOISE, drift.name

    def test_schema_mismatch_raises(self, bench_result):
        bad = dict(bench_result, schema="other/v9")
        with pytest.raises(BenchError):
            compare_bench(bad, bench_result)

    def test_render_text_mentions_verdicts(self, bench_result):
        baseline = _doctored(bench_result, 1 / 3)
        text = compare_bench(baseline, bench_result).render_text()
        assert "REGRESSED" in text
        assert "regressed," in text


class TestBenchCli:
    @pytest.fixture()
    def canned_bench(self, bench_result, monkeypatch):
        monkeypatch.setattr(cli, "run_bench",
                            lambda **kwargs: copy.deepcopy(bench_result))
        return bench_result

    def test_bench_writes_baseline(self, canned_bench, tmp_path, capsys):
        out = str(tmp_path / "BENCH_pipeline.json")
        assert cli.main(["bench", "--rounds", "1", "--out", out]) == 0
        assert load_baseline(out)["schema"] == BENCH_SCHEMA
        assert "wrote" in capsys.readouterr().out

    def test_compare_ok_exits_zero(self, canned_bench, tmp_path):
        baseline = str(tmp_path / "BENCH_pipeline.json")
        write_bench(baseline, canned_bench)
        assert cli.main(["bench", "--compare", baseline]) == 0

    def test_compare_regression_exits_one(self, canned_bench, tmp_path):
        baseline = str(tmp_path / "BENCH_pipeline.json")
        write_bench(baseline, _doctored(canned_bench, 1 / 3))
        assert cli.main(["bench", "--compare", baseline]) == 1

    def test_compare_corrupt_baseline_exits_two(self, monkeypatch, tmp_path):
        # The baseline is refused before any round is timed.
        calls = []
        monkeypatch.setattr(cli, "run_bench",
                            lambda **kwargs: calls.append(kwargs))
        baseline = tmp_path / "BENCH_pipeline.json"
        baseline.write_text("{ rotten")
        assert cli.main(["bench", "--compare", str(baseline)]) == 2
        assert calls == []

    def test_compare_does_not_overwrite_baseline(self, canned_bench, tmp_path):
        baseline = str(tmp_path / "BENCH_pipeline.json")
        write_bench(baseline, _doctored(canned_bench, 3.0))
        before = open(baseline).read()
        assert cli.main(["bench", "--compare", baseline]) == 0
        assert open(baseline).read() == before

    def test_profile_flag_requires_telemetry_out(self, tmp_path, capsys):
        rc = cli.main(["run", "--profile", "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "--telemetry-out" in capsys.readouterr().err
