"""The cross-run registry: ingestion, idempotency, queries, and the
``repro runs`` CLI surface."""

import json
import os
import shutil

import pytest

from repro.cli import main
from repro.obs.registry import RegistryError, RunRegistry
from repro.obs.rundir import RunDir
from repro.obs.schemas import TRACE_DOC_SCHEMA


@pytest.fixture(scope="module")
def telemetry_dir(tmp_path_factory):
    """One completed telemetry-enabled run."""
    base = tmp_path_factory.mktemp("registry-run")
    code = main([
        "run", "--scale", "0.01", "--iterations", "2", "--seed", "21",
        "--out", str(base / "dataset"),
        "--telemetry-out", str(base / "telemetry"),
    ])
    assert code == 0
    return str(base / "telemetry")


@pytest.fixture()
def registry(tmp_path):
    with RunRegistry.open(str(tmp_path / "runs.sqlite")) as reg:
        yield reg


class TestIngest:
    def test_first_ingest_inserts(self, registry, telemetry_dir):
        result = registry.ingest(telemetry_dir)
        assert result.inserted
        assert result.run_id.startswith("run-")
        assert result.seq == 1
        assert result.n_metrics > 20

    def test_reingest_same_dir_is_noop(self, registry, telemetry_dir):
        first = registry.ingest(telemetry_dir)
        second = registry.ingest(telemetry_dir)
        assert not second.inserted
        assert second.run_id == first.run_id
        assert second.seq == first.seq
        assert len(registry.runs()) == 1

    def test_run_row_captures_config(self, registry, telemetry_dir):
        registry.ingest(telemetry_dir)
        (row,) = registry.runs()
        assert row.seed == 21
        assert row.scale == 0.01
        assert row.iterations == 2
        assert row.config_hash == RunDir.load(telemetry_dir).config_hash()
        assert row.scorecard_passed is True
        assert row.ingested_at.endswith("+00:00")

    def test_metrics_extracted(self, registry, telemetry_dir):
        result = registry.ingest(telemetry_dir)
        metrics = registry.metrics_of(result.seq)
        assert "fidelity.calib_efficacy_rate" in metrics
        assert "stage_sim_seconds.iteration_crawl" in metrics
        assert "crawl.pages_total" in metrics
        assert "contracts.coverage" in metrics
        value, source = metrics["fidelity.calib_efficacy_rate"]
        assert source == "scorecard"
        assert 0.0 < value < 1.0

    def test_explicit_run_id(self, registry, telemetry_dir):
        result = registry.ingest(telemetry_dir, run_id="nightly-001")
        assert result.run_id == "nightly-001"
        assert registry.run("nightly-001") is not None

    def test_document_roundtrip(self, registry, telemetry_dir):
        result = registry.ingest(telemetry_dir)
        document = registry.document(result.run_id)
        assert document["schema"] == TRACE_DOC_SCHEMA
        assert document["run"]["seed"] == 21

    def test_missing_dir_is_registry_error(self, registry, tmp_path):
        with pytest.raises(RegistryError):
            registry.ingest(str(tmp_path / "nope"))

    def test_unknown_scorecard_schema_refused(self, registry, telemetry_dir,
                                              tmp_path):
        doctored = tmp_path / "doctored"
        shutil.copytree(telemetry_dir, doctored)
        card_path = doctored / "scorecard.json"
        card = json.loads(card_path.read_text())
        card["schema"] = "repro.scorecard/v99"
        card_path.write_text(json.dumps(card))
        with pytest.raises(RegistryError, match="schema id"):
            registry.ingest(str(doctored))

    def test_ingest_without_optional_artifacts(self, registry, telemetry_dir,
                                               tmp_path):
        partial = tmp_path / "partial"
        partial.mkdir()
        shutil.copy(os.path.join(telemetry_dir, "manifest.json"), partial)
        result = registry.ingest(str(partial))
        assert result.inserted
        metrics = registry.metrics_of(result.seq)
        assert "stage_sim_seconds.iteration_crawl" in metrics
        assert not any(name.startswith("fidelity.calib") for name in metrics)

    def test_append_only_distinct_runs(self, registry, telemetry_dir,
                                       tmp_path):
        registry.ingest(telemetry_dir)
        twin = tmp_path / "twin"
        shutil.copytree(telemetry_dir, twin)
        # Any byte difference in an artifact makes it a distinct run.
        manifest = json.loads((twin / "manifest.json").read_text())
        manifest["git"] = "deadbeef"
        (twin / "manifest.json").write_text(json.dumps(manifest))
        result = registry.ingest(str(twin))
        assert result.inserted
        assert len(registry.runs()) == 2

    def test_open_existing_requires_file(self, tmp_path):
        with pytest.raises(RegistryError, match="no run registry"):
            RunRegistry.open_existing(str(tmp_path / "absent.sqlite"))

    def test_series_in_ingest_order(self, registry, telemetry_dir, tmp_path):
        registry.ingest(telemetry_dir)
        twin = tmp_path / "twin"
        shutil.copytree(telemetry_dir, twin)
        (twin / "events.jsonl").write_text(
            (open(os.path.join(telemetry_dir, "events.jsonl")).read())
        )
        manifest = json.loads((twin / "manifest.json").read_text())
        manifest["git"] = "other"
        (twin / "manifest.json").write_text(json.dumps(manifest))
        registry.ingest(str(twin))
        series = registry.series("fidelity.calib_efficacy_rate")
        assert len(series) == 2
        assert series[0][0] < series[1][0]
        assert series[0][2] == series[1][2]  # same-seed → same value


class TestRunsCli:
    @pytest.fixture()
    def registry_path(self, tmp_path, telemetry_dir):
        path = str(tmp_path / "runs.sqlite")
        assert main(["runs", "ingest", telemetry_dir,
                     "--registry", path]) == 0
        return path

    def test_ingest_prints_and_skips(self, registry_path, telemetry_dir,
                                     capsys):
        capsys.readouterr()
        assert main(["runs", "ingest", telemetry_dir,
                     "--registry", registry_path]) == 0
        assert "skipped" in capsys.readouterr().out

    def test_list(self, registry_path, capsys):
        capsys.readouterr()
        assert main(["runs", "list", "--registry", registry_path]) == 0
        out = capsys.readouterr().out
        row = out.splitlines()[-1].split()
        assert row[2] == "21"  # seed
        assert row[-1] == "PASS"  # scorecard

    def test_show(self, registry_path, capsys):
        capsys.readouterr()
        with RunRegistry.open_existing(registry_path) as registry:
            (row,) = registry.runs()
        assert main(["runs", "show", row.run_id,
                     "--registry", registry_path]) == 0
        assert f"run_id: {row.run_id}" in capsys.readouterr().out
        assert main(["runs", "show", row.run_id, "--json",
                     "--registry", registry_path]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == TRACE_DOC_SCHEMA

    def test_show_unknown_run_exits_2(self, registry_path, capsys):
        assert main(["runs", "show", "run-unknown",
                     "--registry", registry_path]) == 2

    def test_trends_text_and_json(self, registry_path, capsys):
        capsys.readouterr()
        assert main(["runs", "trends", "--registry", registry_path]) == 0
        out = capsys.readouterr().out
        assert "fidelity.calib_efficacy_rate" in out
        assert main(["runs", "trends", "--json",
                     "--registry", registry_path]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro.trend-series/v1"
        assert document["n_series"] > 20

    def test_trends_html_fleet_view(self, registry_path, tmp_path, capsys):
        out_path = str(tmp_path / "fleet.html")
        assert main(["runs", "trends", "--registry", registry_path,
                     "--html", out_path]) == 0
        page = open(out_path, encoding="utf-8").read()
        assert "Fleet view" in page
        assert "fidelity.calib_efficacy_rate" in page
        assert "No alerts" in page

    def test_alerts_clean_single_run(self, registry_path, tmp_path, capsys):
        capsys.readouterr()
        alerts_path = str(tmp_path / "alerts.json")
        assert main(["runs", "alerts", "--registry", registry_path,
                     "--out", alerts_path]) == 0
        assert "no alerts" in capsys.readouterr().out
        document = json.loads(open(alerts_path).read())
        assert document["schema"] == "repro.alerts/v1"
        assert document["fired"] is False

    def test_alerts_doctored_scorecard_exits_1(self, registry_path,
                                               telemetry_dir, tmp_path,
                                               capsys):
        doctored = tmp_path / "doctored"
        shutil.copytree(telemetry_dir, doctored)
        card_path = doctored / "scorecard.json"
        card = json.loads(card_path.read_text())
        for entry in card["entries"]:
            if entry["name"] == "calib_efficacy_rate":
                entry["value"] = 0.001
                entry["passed"] = False
        card["passed"] = False
        card["n_failed"] = 1
        card_path.write_text(json.dumps(card, sort_keys=True))
        assert main(["runs", "ingest", str(doctored),
                     "--registry", registry_path]) == 0
        capsys.readouterr()
        assert main(["runs", "alerts", "--registry", registry_path]) == 1
        out = capsys.readouterr().out
        assert "fidelity_band" in out
        assert "calib_efficacy_rate" in out

    def test_missing_registry_exits_2(self, tmp_path, capsys):
        assert main(["runs", "list",
                     "--registry", str(tmp_path / "none.sqlite")]) == 2
        assert "no run registry" in capsys.readouterr().err

    def test_list_is_byte_identical_across_twin_registries(
            self, telemetry_dir, tmp_path, capsys):
        """Ingesting the same run into two registries at different times
        must list identically: sorted by run id, no wall-clock column."""
        twin_a = str(tmp_path / "a.sqlite")
        twin_b = str(tmp_path / "b.sqlite")
        assert main(["runs", "ingest", telemetry_dir,
                     "--registry", twin_a]) == 0
        assert main(["runs", "ingest", telemetry_dir,
                     "--registry", twin_b]) == 0
        capsys.readouterr()
        assert main(["runs", "list", "--registry", twin_a]) == 0
        out_a = capsys.readouterr().out
        assert main(["runs", "list", "--registry", twin_b]) == 0
        out_b = capsys.readouterr().out
        assert out_a == out_b
        assert "ingested=" not in out_a
