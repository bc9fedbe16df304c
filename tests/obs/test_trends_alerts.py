"""Trend statistics and the deterministic anomaly rules, exercised
over synthetic documents so each rule can be driven precisely."""

import json
import re

import pytest

from repro.obs.alerts import (
    AlertReport,
    evaluate_alerts,
    write_alerts,
)
from repro.obs.registry import RunRegistry
from repro.obs.schemas import TRACE_DOC_SCHEMA
from repro.obs.trends import (
    TrendSeries,
    TrendPoint,
    compute_trends,
    mad,
    median,
    render_trends_text,
    sparkline,
    trends_document,
)


def make_document(
    seed=7,
    fidelity=0.8,
    fidelity_passed=True,
    recall=0.95,
    crawl_sim_seconds=1000.0,
    crawl_wall_seconds=2.0,
    error_rate=0.02,
    pages_total=500,
    coverage=0.99,
    quarantine_total=0,
    stages=("bootstrap", "iteration_crawl"),
):
    """A minimal-but-complete trace document for ``ingest_document``."""
    return {
        "schema": TRACE_DOC_SCHEMA,
        "path": "",
        "run": {
            "git": "testrev",
            "seed": seed,
            "config": {"seed": seed, "scale": 0.01, "iterations": 2},
            "simulated_seconds": crawl_sim_seconds * len(stages),
            "dataset": {"listings": 380},
        },
        "stages": [
            {
                "name": name,
                "sim_seconds": crawl_sim_seconds,
                "wall_seconds": crawl_wall_seconds,
            }
            for name in stages
        ],
        "scorecard": {
            "passed": fidelity_passed,
            "n_entries": 2,
            "n_failed": 0 if fidelity_passed else 1,
            "entries": [{
                "name": "calib_efficacy_rate",
                "kind": "calibration",
                "value": fidelity,
                "low": 0.5,
                "high": 0.9,
                "passed": fidelity_passed,
            }, {
                "name": "scam_post_recall",
                "kind": "ground_truth",
                "value": recall,
                "low": 0.5,
                "high": 1.0,
                "passed": True,
            }],
        },
        "watchdog": None,
        "contracts": {
            "validation": {"coverage": coverage, "repaired": 0,
                           "degraded": 0, "quarantined": quarantine_total},
            "quarantine": {"total": quarantine_total},
        },
        "stage_failures": [],
        "archive": None,
        "profile": None,
        "crawl": {
            "by_marketplace": {},
            "pages_total": pages_total,
            "errors_total": int(pages_total * error_rate),
            "error_rate": error_rate,
        },
        "events": {},
        "http": {},
    }


@pytest.fixture()
def registry(tmp_path):
    with RunRegistry.open(str(tmp_path / "runs.sqlite")) as reg:
        yield reg


def ingest_n(registry, n, **overrides):
    start = len(registry.runs())
    for i in range(start, start + n):
        registry.ingest_document(make_document(**overrides),
                                 run_id=f"run-{i}")


class TestStatistics:
    def test_median(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5
        assert median([]) == 0.0

    def test_mad(self):
        assert mad([1.0, 1.0, 1.0]) == 0.0
        assert mad([1.0, 2.0, 3.0]) == 1.0
        assert mad([]) == 0.0

    def test_sparkline(self):
        assert sparkline([]) == ""
        assert sparkline([5.0, 5.0, 5.0]) == "▁▁▁"
        line = sparkline([0.0, 0.5, 1.0])
        assert line[0] == "▁"
        assert line[-1] == "█"
        assert len(line) == 3

    def test_series_baseline_excludes_latest(self):
        series = TrendSeries(name="m", points=[
            TrendPoint(1, "a", 1.0),
            TrendPoint(2, "b", 1.0),
            TrendPoint(3, "c", 9.0),
        ])
        assert series.baseline_values() == [1.0, 1.0]
        assert series.baseline_median() == 1.0
        assert series.baseline_mad() == 0.0
        assert series.latest == 9.0
        assert series.delta == 8.0
        assert not series.zero_variance

    def test_machine_dependent_flag(self):
        assert TrendSeries(name="stage_wall_seconds.x").machine_dependent
        assert TrendSeries(name="profile.rss_max_kb").machine_dependent
        assert not TrendSeries(name="stage_sim_seconds.x").machine_dependent


class TestTrends:
    def test_same_seed_runs_are_zero_variance(self, registry):
        ingest_n(registry, 5)
        for series in compute_trends(registry):
            if not series.machine_dependent:
                assert series.zero_variance, series.name
                assert series.delta == 0.0, series.name
        names = {series.name for series in compute_trends(registry)}
        assert "fidelity.calib_efficacy_rate" in names
        assert "stage_sim_seconds.iteration_crawl" in names

    def test_render_text_footnote_only_with_wall_metrics(self, registry):
        ingest_n(registry, 2)
        text = render_trends_text(compute_trends(registry))
        machine = text.split("trends (machine-dependent")[1]
        assert "stage_wall_seconds.bootstrap" in machine
        assert "machine-dependent" in text
        assert render_trends_text([]) == "no metrics registered yet"

    def test_document_shape(self, registry):
        ingest_n(registry, 3)
        document = trends_document(compute_trends(registry), registry.runs())
        assert document["n_series"] == len(document["series"])
        assert len(document["runs"]) == 3
        json.dumps(document)  # must be serializable


class TestAlertRules:
    def test_identical_history_never_alarms(self, registry):
        ingest_n(registry, 5)
        report = evaluate_alerts(registry)
        assert not report.fired
        assert report.runs_considered == 5

    def test_empty_registry_is_clean(self, registry):
        report = evaluate_alerts(registry)
        assert not report.fired
        assert report.runs_considered == 0

    def test_fidelity_band_fires_without_history(self, registry):
        registry.ingest_document(
            make_document(fidelity=0.05, fidelity_passed=False),
            run_id="bad")
        report = evaluate_alerts(registry)
        (alert,) = report.alerts
        assert alert.rule == "fidelity_band"
        assert alert.severity == "critical"
        assert alert.metric == "fidelity.calib_efficacy_rate"
        assert "calibration band" in alert.message

    def test_fidelity_drop(self, registry):
        ingest_n(registry, 4)
        # Still inside the band, but well below the cross-run baseline.
        registry.ingest_document(make_document(recall=0.75), run_id="drop")
        report = evaluate_alerts(registry)
        (alert,) = report.alerts
        assert alert.rule == "fidelity_drop"
        assert alert.metric == "fidelity.scam_post_recall"

    def test_fidelity_drop_within_tolerance_is_clean(self, registry):
        ingest_n(registry, 4)
        registry.ingest_document(make_document(recall=0.94), run_id="tiny")
        assert not evaluate_alerts(registry).fired

    def test_one_baseline_run_judges_no_drop(self, registry):
        # Against one earlier run the MAD is 0: a seed-to-seed move of
        # 0.05 would cross the 0.02 floor.
        ingest_n(registry, 1)
        registry.ingest_document(make_document(recall=0.90), run_id="next")
        report = evaluate_alerts(registry)
        assert not any(a.rule == "fidelity_drop" for a in report.alerts)

    def test_calibration_move_inside_its_band_is_clean(self, registry):
        ingest_n(registry, 4)
        registry.ingest_document(make_document(fidelity=0.6),
                                 run_id="in-band")
        assert not evaluate_alerts(registry).fired

    def test_stage_time_sim(self, registry):
        ingest_n(registry, 4)
        registry.ingest_document(
            make_document(crawl_sim_seconds=5000.0), run_id="slow")
        report = evaluate_alerts(registry)
        rules = sorted(alert.rule for alert in report.alerts)
        assert "stage_time" in rules
        stage_alerts = [a for a in report.alerts if a.rule == "stage_time"]
        assert {a.metric for a in stage_alerts} == {
            "stage_sim_seconds.bootstrap",
            "stage_sim_seconds.iteration_crawl",
        }

    def test_wall_time_ignored_by_default(self, registry):
        ingest_n(registry, 4)
        registry.ingest_document(
            make_document(crawl_wall_seconds=500.0), run_id="slow-wall")
        assert not evaluate_alerts(registry).fired
        report = evaluate_alerts(registry, include_wall=True)
        assert {alert.rule for alert in report.alerts} == {"stage_time"}
        assert all(alert.metric.startswith("stage_wall_seconds.")
                   for alert in report.alerts)

    def test_error_rate_spike(self, registry):
        ingest_n(registry, 4)
        registry.ingest_document(
            make_document(error_rate=0.30), run_id="spiky")
        report = evaluate_alerts(registry)
        assert {alert.rule for alert in report.alerts} == {"error_rate_spike"}
        (alert,) = report.alerts
        assert alert.severity == "critical"

    def test_quarantine_spike(self, registry):
        ingest_n(registry, 4)
        registry.ingest_document(
            make_document(quarantine_total=40), run_id="dirty")
        rules = {alert.rule for alert in evaluate_alerts(registry).alerts}
        assert "quarantine_spike" in rules

    def test_coverage_drop_pages(self, registry):
        ingest_n(registry, 4)
        registry.ingest_document(
            make_document(pages_total=200), run_id="short")
        report = evaluate_alerts(registry)
        metrics = {a.metric for a in report.alerts
                   if a.rule == "coverage_drop"}
        assert "crawl.pages_total" in metrics

    def test_coverage_drop_contracts_and_stages(self, registry):
        ingest_n(registry, 4)
        registry.ingest_document(
            make_document(coverage=0.50, stages=("bootstrap",)),
            run_id="thin")
        metrics = {a.metric for a in evaluate_alerts(registry).alerts
                   if a.rule == "coverage_drop"}
        assert "contracts.coverage" in metrics
        assert "trace.stages_total" in metrics

    def test_small_coverage_wiggle_is_clean(self, registry):
        ingest_n(registry, 4)
        registry.ingest_document(
            make_document(pages_total=490), run_id="wiggle")
        assert not evaluate_alerts(registry).fired


class TestDegradedLatestRun:
    """A degraded (failed-stage) latest run misses whole metric
    families and can carry unscorable scorecard entries; evaluation
    must note the absences, judge what remains, and never crash."""

    def _degraded_document(self):
        document = make_document(stages=("bootstrap",))
        document["scorecard"] = {
            "passed": False,
            "n_entries": 2,
            "n_failed": 2,
            "entries": [
                {"name": "calib_efficacy_rate", "kind": "calibration",
                 "value": None, "low": 0.5, "high": 0.9, "passed": False},
                {"name": "gt_anatomy", "kind": "ground_truth",
                 "value": "degraded", "low": None, "high": None,
                 "passed": False},
            ],
        }
        document["contracts"] = None
        document["stage_failures"] = [
            {"stage": "anatomy", "kind": "injected", "detail": "drill"},
        ]
        return document

    def test_degraded_latest_does_not_crash(self, registry):
        ingest_n(registry, 3)
        registry.ingest_document(self._degraded_document(),
                                 run_id="degraded")
        report = evaluate_alerts(registry)  # must not raise
        assert report.run_id == "degraded"

    def test_missing_metrics_become_notes(self, registry):
        ingest_n(registry, 3)
        registry.ingest_document(self._degraded_document(),
                                 run_id="degraded")
        report = evaluate_alerts(registry)
        noted = {note.metric for note in report.notes
                 if note.kind == "missing_metric"}
        assert "stage_sim_seconds.iteration_crawl" in noted
        assert "contracts.coverage" in noted
        assert "fidelity.calib_efficacy_rate" in noted
        # Wall metrics are machine-dependent: absence is not a finding
        # unless wall alerting was opted into.
        assert not any(m.startswith("stage_wall_seconds.") for m in noted)
        wall_report = evaluate_alerts(registry, include_wall=True)
        wall_noted = {note.metric for note in wall_report.notes
                      if note.kind == "missing_metric"}
        assert "stage_wall_seconds.iteration_crawl" in wall_noted

    def test_unscorable_entries_become_notes(self, registry):
        ingest_n(registry, 3)
        registry.ingest_document(self._degraded_document(),
                                 run_id="degraded")
        report = evaluate_alerts(registry)
        unscorable = {note.metric for note in report.notes
                      if note.kind == "unscorable_entry"}
        assert unscorable == {"fidelity.calib_efficacy_rate",
                              "fidelity.gt_anatomy"}
        # None of the unscorable entries fired the crashy band rule.
        assert not any(a.rule == "fidelity_band" for a in report.alerts)

    def test_surviving_metrics_still_judged(self, registry):
        ingest_n(registry, 3)
        document = self._degraded_document()
        document["crawl"]["error_rate"] = 0.30
        document["crawl"]["errors_total"] = 150
        registry.ingest_document(document, run_id="degraded")
        report = evaluate_alerts(registry)
        assert "error_rate_spike" in {a.rule for a in report.alerts}

    def test_notes_serialized_and_rendered(self, registry):
        ingest_n(registry, 3)
        registry.ingest_document(self._degraded_document(),
                                 run_id="degraded")
        report = evaluate_alerts(registry)
        document = report.to_dict()
        assert document["notes"]
        assert all(set(note) == {"kind", "metric", "detail"}
                   for note in document["notes"])
        text = report.render_text()
        assert re.search(r"^note +missing_metric ", text, re.M)
        assert re.search(r"^note +unscorable_entry ", text, re.M)

    def test_healthy_history_has_no_notes(self, registry):
        ingest_n(registry, 4)
        report = evaluate_alerts(registry)
        assert report.notes == []
        assert not re.search(r"^note ", report.render_text(), re.M)


class TestAlertReport:
    def test_config_block(self, registry):
        assert evaluate_alerts(registry).to_dict()["config"] == {
            "k_mad": 4.0,
            "fidelity_tolerance": 0.02,
            "stage_time_rel_floor": 0.25,
            "stage_time_abs_floor": 60.0,
            "error_rate_tolerance": 0.01,
            "quarantine_floor": 5.0,
            "coverage_tolerance": 0.05,
            "include_wall": False,
        }
        wall = evaluate_alerts(registry, include_wall=True).to_dict()
        assert wall["config"]["include_wall"] is True

    def test_critical_sorts_first(self, registry):
        ingest_n(registry, 4)
        registry.ingest_document(
            make_document(recall=0.75, error_rate=0.30), run_id="double")
        document = evaluate_alerts(registry).to_dict()
        severities = [alert["severity"] for alert in document["alerts"]]
        assert severities == sorted(severities,
                                    key=lambda s: s != "critical")
        assert document["fired"] is True
        assert document["counts"] == {"critical": 1, "warning": 1}

    def test_render_text(self, registry):
        ingest_n(registry, 2)
        clean = evaluate_alerts(registry)
        assert "no alerts" in clean.render_text()
        registry.ingest_document(
            make_document(error_rate=0.30), run_id="spiky")
        fired = evaluate_alerts(registry)
        text = fired.render_text()
        assert re.search(r"^critical +error_rate_spike ", text, re.M)

    def test_write_alerts_to_dir_or_file(self, registry, tmp_path):
        report = evaluate_alerts(registry)
        into_dir = write_alerts(str(tmp_path), report)
        assert into_dir.endswith("alerts.json")
        explicit = write_alerts(str(tmp_path / "custom.json"), report)
        assert json.load(open(explicit))["schema"] == "repro.alerts/v1"

    def test_determinism_same_registry_same_bytes(self, registry, tmp_path):
        ingest_n(registry, 3)
        registry.ingest_document(
            make_document(error_rate=0.30), run_id="spiky")
        first = json.dumps(evaluate_alerts(registry).to_dict(),
                           sort_keys=True)
        second = json.dumps(evaluate_alerts(registry).to_dict(),
                            sort_keys=True)
        assert first == second
