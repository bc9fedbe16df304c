"""CLI telemetry flags and the ``repro trace`` subcommand."""

import json
import os

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def telemetry_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli-telemetry")
    run_dir = base / "run"
    tel_dir = base / "telemetry"
    code = main([
        "run", "--scale", "0.01", "--iterations", "2", "--seed", "99",
        "--out", str(run_dir), "--telemetry-out", str(tel_dir),
    ])
    assert code == 0
    return str(tel_dir)


class TestTelemetryOut:
    def test_all_four_files_written(self, telemetry_dir):
        for name in ("manifest.json", "metrics.json", "trace.jsonl",
                     "events.jsonl"):
            assert os.path.exists(os.path.join(telemetry_dir, name)), name

    def test_manifest_contents(self, telemetry_dir):
        with open(os.path.join(telemetry_dir, "manifest.json")) as handle:
            manifest = json.load(handle)
        assert manifest["schema"] == "repro.run-manifest/v1"
        assert manifest["seed"] == 99
        assert manifest["config"]["scale"] == 0.01
        assert any(s["name"] == "iteration_crawl" for s in manifest["stages"])
        assert manifest["crawl"]["reports"], "per-marketplace crawl reports"

    def test_trace_jsonl_has_study_root(self, telemetry_dir):
        with open(os.path.join(telemetry_dir, "trace.jsonl")) as handle:
            spans = [json.loads(line) for line in handle if line.strip()]
        assert spans, "spans exported"
        roots = [s for s in spans if s["parent_id"] is None]
        assert any(s["name"] == "study" for s in roots)


class TestRunDirScorecard:
    """``run --out X --telemetry-out Y`` keeps the run's scorecard in X
    too, so a catalog built from X alone serves it."""

    def test_run_dir_scorecard_equals_the_telemetry_copy(self, telemetry_dir):
        run_dir = os.path.join(os.path.dirname(telemetry_dir), "run")
        with open(os.path.join(run_dir, "scorecard.json"), "rb") as handle:
            saved = handle.read()
        with open(os.path.join(telemetry_dir, "scorecard.json"),
                  "rb") as handle:
            assert saved == handle.read()

    def test_catalog_of_the_run_dir_serves_the_scorecard(
            self, telemetry_dir, tmp_path, capsys):
        run_dir = os.path.join(os.path.dirname(telemetry_dir), "run")
        catalog_dir = str(tmp_path / "catalog")
        assert main(["serve", "build", run_dir, "--out", catalog_dir]) == 0
        capsys.readouterr()
        assert main(["serve", "query", catalog_dir, "/api/scorecard"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"]


class TestTraceCommand:
    def test_renders_stage_summary(self, telemetry_dir, capsys):
        assert main(["trace", telemetry_dir]) == 0
        out = capsys.readouterr().out
        assert "per-stage summary:" in out
        assert "iteration_crawl" in out
        assert "profile_collection" in out
        assert "crawl totals" in out

    def test_missing_dir_exits_2(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope")]) == 2
        err = capsys.readouterr().err
        assert "no telemetry directory" in err

    def test_empty_dir_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["trace", str(empty)]) == 2
        err = capsys.readouterr().err
        assert "contains no telemetry files" in err

    def test_http_latency_quantiles_rendered(self, telemetry_dir, capsys):
        assert main(["trace", telemetry_dir]) == 0
        out = capsys.readouterr().out
        assert "http client, per host" in out
        assert "p50" in out and "p95" in out
        assert "retry wait" in out

    def test_json_document(self, telemetry_dir, capsys):
        assert main(["trace", telemetry_dir, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro.trace-summary/v1"
        assert document["run"]["seed"] == 99
        assert document["run"]["config_hash"]
        assert any(stage["name"] == "iteration_crawl"
                   for stage in document["stages"])
        assert document["scorecard"]["n_entries"] > 0
        assert document["crawl"]["pages_total"] > 0
        assert "http" in document
        assert document["run"]["manifest_schema"] == "repro.run-manifest/v1"
        assert all(isinstance(entry["detail"], str)
                   for entry in document["scorecard"]["entries"])
        watchdog = document["watchdog"]
        assert len(watchdog["findings"]) == watchdog["findings_total"]
        assert document["profile"] is None  # not run with --profile
        assert set(document["warning_events"]) <= set(document["events"])
        assert any(name.startswith("http_requests_total{host=")
                   for name in document["metrics"])
        assert all(isinstance(value, float)
                   for value in document["metrics"].values())

    def test_json_is_byte_stable(self, telemetry_dir, capsys):
        assert main(["trace", telemetry_dir, "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["trace", telemetry_dir, "--json"]) == 0
        assert capsys.readouterr().out == first

    def test_run_without_telemetry_writes_nothing(self, tmp_path):
        run_dir = tmp_path / "plain"
        code = main([
            "run", "--scale", "0.01", "--iterations", "1", "--seed", "7",
            "--no-underground", "--out", str(run_dir),
        ])
        assert code == 0
        assert not (tmp_path / "manifest.json").exists()
        assert not (run_dir / "manifest.json").exists()
        # Nothing was scored, so the run dir holds no scorecard either.
        assert not (run_dir / "scorecard.json").exists()
