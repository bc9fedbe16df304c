"""Telemetry directories with optional artifacts absent: every
consumer (trace, health, ingest) must degrade gracefully, never crash."""

import json
import shutil

import pytest

from repro.cli import main
from repro.obs.manifest import build_manifest
from repro.obs.registry import RunRegistry
from repro.obs.report_html import render_health_html
from repro.obs.rundir import RunDir, TelemetryDirError
from repro.obs.schemas import config_hash
from repro.obs.summary import render_trace_summary, trace_document
from repro.obs.telemetry import NULL_TELEMETRY


@pytest.fixture(scope="module")
def full_dir(tmp_path_factory):
    """One complete telemetry-enabled run to carve subsets from."""
    base = tmp_path_factory.mktemp("partial-run")
    code = main([
        "run", "--scale", "0.01", "--iterations", "2", "--seed", "33",
        "--out", str(base / "dataset"),
        "--telemetry-out", str(base / "telemetry"),
    ])
    assert code == 0
    return base / "telemetry"


def subset(full_dir, tmp_path, keep):
    target = tmp_path / "subset"
    target.mkdir()
    for name in keep:
        shutil.copy(full_dir / name, target)
    return target


def manifest_only_dir(tmp_path):
    """A synthetic directory with nothing but a minimal manifest."""
    target = tmp_path / "manifest-only"
    target.mkdir()
    manifest = build_manifest({"seed": 5}, object(), NULL_TELEMETRY)
    (target / "manifest.json").write_text(json.dumps(manifest))
    return target


class TestLoading:
    def test_empty_dir_refused(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(TelemetryDirError, match="no telemetry files"):
            RunDir.load(str(tmp_path / "empty"))

    def test_missing_dir_refused(self, tmp_path):
        with pytest.raises(TelemetryDirError, match="no telemetry"):
            RunDir.load(str(tmp_path / "absent"))

    def test_manifest_only(self, tmp_path):
        run = RunDir.load(str(manifest_only_dir(tmp_path)))
        assert run.scorecard is None
        assert run.profile is None
        assert run.events == []
        assert run.config() == {"seed": 5}

    def test_metrics_only(self, full_dir, tmp_path):
        run = RunDir.load(str(subset(full_dir, tmp_path, ["metrics.json"])))
        assert run.manifest is None
        assert run.scalar_metrics()
        assert run.config() == {}
        assert run.watchdog_summary() is None

    def test_no_scorecard(self, full_dir, tmp_path):
        run = RunDir.load(str(subset(
            full_dir, tmp_path, ["manifest.json", "metrics.json"])))
        assert run.scorecard is None
        assert run.stages  # manifest still carries stage durations

    def test_config_hash_fallback(self, full_dir, tmp_path):
        run_dir = subset(full_dir, tmp_path, ["manifest.json"])
        manifest = json.loads((run_dir / "manifest.json").read_text())
        recorded = manifest.pop("config_hash")
        (run_dir / "manifest.json").write_text(json.dumps(manifest))
        run = RunDir.load(str(run_dir))
        # Pre-field manifests recompute the identical hash.
        assert run.config_hash() == recorded == config_hash(run.config())

    def test_content_digest_tracks_bytes(self, full_dir, tmp_path):
        first = RunDir.load(str(full_dir)).content_digest()
        assert first == RunDir.load(str(full_dir)).content_digest()
        trimmed = subset(full_dir, tmp_path, ["manifest.json"])
        assert RunDir.load(str(trimmed)).content_digest() != first


class TestConsumersDegrade:
    def test_trace_summary_manifest_only(self, tmp_path):
        text = render_trace_summary(
            trace_document(str(manifest_only_dir(tmp_path))))
        assert "seed" in text

    def test_trace_summary_no_scorecard(self, full_dir, tmp_path):
        run_dir = subset(full_dir, tmp_path, ["manifest.json"])
        text = render_trace_summary(trace_document(str(run_dir)))
        assert "per-stage summary" in text
        assert "fidelity scorecard" not in text.lower()

    def test_trace_document_partial(self, full_dir, tmp_path):
        run_dir = subset(full_dir, tmp_path, ["manifest.json"])
        document = trace_document(str(run_dir))
        assert document["scorecard"] is None
        assert document["profile"] is None
        assert document["stages"]
        json.dumps(document)

    def test_trace_document_metrics_only(self, full_dir, tmp_path):
        document = trace_document(str(subset(
            full_dir, tmp_path, ["metrics.json"])))
        assert document["run"]["seed"] is None
        assert document["crawl"]["pages_total"] >= 0
        json.dumps(document)

    def test_health_html_partial(self, full_dir, tmp_path):
        page = render_health_html(trace_document(str(
            subset(full_dir, tmp_path, ["manifest.json"]))))
        assert "<html" in page

    def test_cli_trace_partial_exits_0(self, full_dir, tmp_path, capsys):
        run_dir = subset(full_dir, tmp_path, ["manifest.json"])
        assert main(["trace", str(run_dir)]) == 0
        capsys.readouterr()
        assert main(["trace", str(run_dir), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["scorecard"] is None

    def test_ingest_partial(self, full_dir, tmp_path):
        run_dir = subset(full_dir, tmp_path, ["manifest.json"])
        with RunRegistry.open(str(tmp_path / "runs.sqlite")) as registry:
            result = registry.ingest(str(run_dir))
            assert result.inserted
            metrics = registry.metrics_of(result.seq)
            assert "run.simulated_seconds" in metrics
            assert not any(name.startswith("fidelity.") for name in metrics)
            (row,) = registry.runs()
            assert row.scorecard_passed is None

    def test_corrupt_manifest_one_line_error(self, full_dir, tmp_path):
        run_dir = subset(full_dir, tmp_path, ["manifest.json"])
        (run_dir / "manifest.json").write_text("{not json")
        with pytest.raises(TelemetryDirError) as excinfo:
            RunDir.load(str(run_dir))
        assert "\n" not in str(excinfo.value)
