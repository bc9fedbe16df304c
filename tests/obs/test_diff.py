"""Run-to-run regression diffing and the health dashboard.

Covers the library (``diff_runs`` on run-dir document pairs) and
the CLI (``repro diff`` / ``repro health`` exit codes): two same-seed
runs are byte-identical and diff empty; a doctored run regresses; a
broken directory is a one-line error with exit code 2.
"""

import json
import os
import re
import shutil

import pytest

from repro.cli import main
from repro.obs import (
    PROFILE_FILENAME,
    PROFILE_SCHEMA,
    RunRegistry,
    diff_runs,
    health_problems,
    render_health_html,
    render_trace_summary,
    trace_document,
)

RUN_ARGS = ["--scale", "0.01", "--iterations", "2", "--seed", "321"]


@pytest.fixture(scope="module")
def twin_runs(tmp_path_factory):
    """Two telemetry dirs from identical CLI invocations."""
    base = tmp_path_factory.mktemp("diff-runs")
    dirs = []
    for name in ("a", "b"):
        tel = base / name
        code = main(["run", *RUN_ARGS,
                     "--out", str(base / f"out-{name}"),
                     "--telemetry-out", str(tel)])
        assert code == 0
        dirs.append(str(tel))
    return dirs


def doctor(src: str, dst: str, *, scorecard=None, metrics=None) -> str:
    """Copy a telemetry dir and apply JSON mutations."""
    shutil.copytree(src, dst)
    if scorecard is not None:
        path = os.path.join(dst, "scorecard.json")
        with open(path) as handle:
            data = json.load(handle)
        scorecard(data)
        with open(path, "w") as handle:
            json.dump(data, handle, indent=2, sort_keys=True)
    if metrics is not None:
        path = os.path.join(dst, "metrics.json")
        with open(path) as handle:
            data = json.load(handle)
        metrics(data)
        with open(path, "w") as handle:
            json.dump(data, handle, indent=2, sort_keys=True)
    return dst


def fail_entry(name):
    def mutate(data):
        for entry in data["entries"]:
            if entry["name"] == name:
                entry["value"] = 0.01
                entry["passed"] = False
        data["passed"] = False
        data["n_failed"] = 1
    return mutate


def unscorable_entries(data):
    """The two unscorable shapes a degraded stage leaves in a scorecard
    (``value: null`` and a string)."""
    for entry in data["entries"]:
        if entry["name"] == "scam_account_recall":
            entry["value"], entry["passed"] = None, False
        if entry["name"] == "efficacy_recall":
            entry["value"], entry["passed"] = "degraded", False
    data["passed"] = False
    data["n_failed"] = 2


def bump_metric(name):
    """Add 7 to every series of a counter, creating it if the healthy
    run never emitted it (zero-valued counters aren't exported)."""
    def mutate(data):
        for metric in data["metrics"]:
            if metric["name"] == name:
                metric["series"] = metric.get("series") or []
                for series in metric["series"]:
                    series["value"] = float(series.get("value", 0.0)) + 7
                if not metric["series"]:
                    metric["series"] = [{"labels": {}, "value": 7.0}]
                break
        else:
            data["metrics"].append({
                "name": name, "kind": "counter", "help": "",
                "series": [{"labels": {}, "value": 7.0}],
            })
    return mutate


class TestSameSeedRuns:
    def test_scorecards_byte_identical(self, twin_runs):
        a, b = twin_runs
        bytes_a = open(os.path.join(a, "scorecard.json"), "rb").read()
        bytes_b = open(os.path.join(b, "scorecard.json"), "rb").read()
        assert bytes_a == bytes_b

    def test_diff_is_empty(self, twin_runs):
        a, b = twin_runs
        diff = diff_runs(trace_document(a), trace_document(b))
        assert not diff.has_regressions
        assert diff.lines == []
        assert "no differences" in diff.render_text()

    def test_cli_diff_exits_zero(self, twin_runs, capsys):
        a, b = twin_runs
        assert main(["diff", a, b]) == 0
        out = capsys.readouterr().out
        assert "no differences" in out
        assert "0 regressions" in out


class TestRegressionDetection:
    def test_failing_scorecard_entry_regresses(self, twin_runs, tmp_path):
        a, b = twin_runs
        bad = doctor(b, str(tmp_path / "bad"),
                     scorecard=fail_entry("scam_account_recall"))
        diff = diff_runs(trace_document(a), trace_document(bad))
        assert diff.has_regressions
        (line,) = [l for l in diff.regressions()
                   if l.name == "scam_account_recall"]
        assert line.section == "scorecard"
        assert "now failing" in line.note

    def test_small_drop_within_tolerance_not_regression(self, twin_runs, tmp_path):
        a, b = twin_runs

        def nudge(data):
            entry = next(e for e in data["entries"]
                         if e["name"] == "scam_account_recall")
            entry["value"] = round(entry["value"] - 0.01, 6)

        nudged = doctor(b, str(tmp_path / "nudged"), scorecard=nudge)
        diff = diff_runs(trace_document(a), trace_document(nudged))
        assert not diff.has_regressions
        assert diff.lines  # the change is still reported

    def test_error_metric_increase_regresses(self, twin_runs, tmp_path):
        a, b = twin_runs
        noisy = doctor(b, str(tmp_path / "noisy"),
                       metrics=bump_metric("crawl_errors_total"))
        diff = diff_runs(trace_document(a), trace_document(noisy))
        assert any(
            l.regression and "error metric increased" in l.note
            for l in diff.lines
        )

    def test_unscorable_entries_regress_without_crashing(self, twin_runs,
                                                         tmp_path, capsys):
        a, b = twin_runs
        bad = doctor(b, str(tmp_path / "unscorable"),
                     scorecard=unscorable_entries)
        assert main(["diff", a, bad]) == 1
        out = capsys.readouterr().out
        assert "[REGRESSION] scam_account_recall: " in out
        assert re.search(r"\[REGRESSION\] efficacy_recall: \S+ -> degraded"
                         r"  \(now failing\)", out)

    def test_info_event_counts_without_event_log_never_regress(
            self, twin_runs, tmp_path, capsys):
        """Only events.jsonl records levels: the manifest's per-kind
        counts (here info-level ``store.segment_sealed``) are shown by
        trace and health but are never warning-level regressions."""
        a, _ = twin_runs
        with open(os.path.join(a, "manifest.json")) as handle:
            manifest = json.load(handle)
        copies = []
        for sealed in (9, 10):
            target = tmp_path / f"sealed-{sealed}"
            target.mkdir()
            manifest["events"]["store.segment_sealed"] = sealed
            (target / "manifest.json").write_text(json.dumps(manifest))
            copies.append(str(target))
        assert main(["diff", *copies]) == 0
        out = capsys.readouterr().out
        assert "no differences" in out
        document = trace_document(copies[1])
        assert document["events"]["store.segment_sealed"] == 10
        assert document["warning_events"] == {}

    def test_cli_diff_exits_one_and_prints_marker(self, twin_runs, tmp_path,
                                                  capsys):
        a, b = twin_runs
        bad = doctor(b, str(tmp_path / "cli-bad"),
                     scorecard=fail_entry("efficacy_recall"))
        assert main(["diff", a, bad]) == 1
        out = capsys.readouterr().out
        assert "[REGRESSION]" in out
        assert "efficacy_recall" in out

    def test_wall_section_only_on_request(self, twin_runs, capsys):
        a, b = twin_runs
        assert main(["diff", a, b]) == 0
        assert "wall-time" not in capsys.readouterr().out
        assert main(["diff", a, b, "--wall"]) == 0
        assert "machine-dependent" in capsys.readouterr().out


class TestBrokenDirectories:
    def test_diff_missing_dir_exits_2(self, twin_runs, tmp_path, capsys):
        a, _ = twin_runs
        assert main(["diff", a, str(tmp_path / "gone")]) == 2
        assert "no telemetry directory" in capsys.readouterr().err

    def test_diff_corrupt_json_exits_2(self, twin_runs, tmp_path, capsys):
        a, b = twin_runs
        broken = str(tmp_path / "broken")
        shutil.copytree(b, broken)
        with open(os.path.join(broken, "metrics.json"), "w") as handle:
            handle.write('{"metrics": [')  # truncated mid-export
        assert main(["diff", a, broken]) == 2
        err = capsys.readouterr().err
        assert "truncated or corrupt metrics.json" in err
        assert "\n" not in err.strip()  # one-line error

    def test_health_empty_dir_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["health", str(empty)]) == 2
        assert "contains no telemetry files" in capsys.readouterr().err


class TestHealthDashboard:
    def test_writes_html_with_all_sections(self, twin_runs, tmp_path, capsys):
        a, _ = twin_runs
        out = str(tmp_path / "report.html")
        assert main(["health", a, "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert out in stdout and "healthy" in stdout
        html = open(out).read()
        assert "<html" in html
        assert "Fidelity scorecard" in html
        assert "scam_account_recall" in html
        assert "Watchdog" in html
        assert "Per-stage summary" in html
        assert "Http client, per host" in html

    def test_default_output_inside_run_dir(self, twin_runs):
        a, _ = twin_runs
        assert main(["health", a]) == 0
        assert os.path.exists(os.path.join(a, "health.html"))

    def test_strict_fails_on_doctored_scorecard(self, twin_runs, tmp_path,
                                                capsys):
        _, b = twin_runs
        bad = doctor(b, str(tmp_path / "unhealthy"),
                     scorecard=fail_entry("network_pair_recall"))
        assert main(["health", bad, "--strict"]) == 1
        assert "UNHEALTHY" in capsys.readouterr().out
        assert health_problems(trace_document(bad))

    def test_strict_passes_on_healthy_run(self, twin_runs):
        a, _ = twin_runs
        assert main(["health", a, "--strict"]) == 0
        assert not health_problems(trace_document(a))

    def test_unscorable_entries_shown_out_of_band(self, twin_runs, tmp_path,
                                                  capsys):
        _, b = twin_runs
        bad = doctor(b, str(tmp_path / "unscorable"),
                     scorecard=unscorable_entries)
        out = str(tmp_path / "report.html")
        assert main(["health", bad, "--strict", "--out", out]) == 1
        assert "UNHEALTHY" in capsys.readouterr().out
        page = open(out).read()
        for shown in ("None", "degraded"):
            # The raw value in a failing row with an out-of-band status.
            assert re.search(
                r'<tr class="fail"><td>[^<]*</td><td>[^<]*</td>'
                rf'<td class="num">{shown}</td><td>\[[^]]*\]</td>'
                r'<td>out of band</td>', page)


#: A small profile.json with one expected stage never reported.
PROFILE = {
    "schema": PROFILE_SCHEMA,
    "stages_expected": ["anatomy", "network"],
    "phases": [
        {"name": "crawl", "kind": "phase", "wall_seconds": 1.5,
         "sim_seconds": 3600.0, "throughput": {"pages_per_second": 120.0},
         "memory": {"peak_bytes": 2_000_000, "net_bytes": 500_000,
                    "top_allocations": [{"site": "repro/web/html.py:10",
                                         "bytes": 900_000}]}},
        {"name": "stage.anatomy", "kind": "stage", "wall_seconds": 0.2,
         "sim_seconds": 0.0, "throughput": {},
         "memory": {"peak_bytes": 0, "net_bytes": 0, "top_allocations": []}},
    ],
    "totals": {"sim_seconds": 3600.0, "wall_seconds": 1.7,
               "memory": {"tracemalloc_peak_bytes": 2_000_000,
                          "rss_max_kb": 81_920}},
}


class TestOneDocument:
    """trace, health and diff are pure formatters over the run-dir
    document, so a stored document renders exactly like the directory."""

    def test_stored_documents_render_like_the_directory(self, twin_runs,
                                                        tmp_path):
        a, b = twin_runs
        bad = doctor(b, str(tmp_path / "bad"),
                     scorecard=fail_entry("scam_account_recall"),
                     metrics=bump_metric("crawl_errors_total"))
        with open(os.path.join(bad, PROFILE_FILENAME), "w") as handle:
            json.dump(PROFILE, handle)
        live = [trace_document(a), trace_document(bad)]
        assert live[1]["profile"]["missing_stages"] == ["network"]
        assert live[1]["profile"]["phases"][0]["memory"] == {
            "peak_bytes": 2_000_000, "net_bytes": 500_000,
            "top_site": "repro/web/html.py:10",
        }
        reloaded = [json.loads(json.dumps(document)) for document in live]
        with RunRegistry.open(str(tmp_path / "runs.sqlite")) as registry:
            stored = [registry.document(registry.ingest(path).run_id)
                      for path in (a, bad)]

        def render(doc_a, doc_b):
            return (
                [render_trace_summary(doc) for doc in (doc_a, doc_b)],
                [render_health_html(doc) for doc in (doc_a, doc_b)],
                [health_problems(doc) for doc in (doc_a, doc_b)],
                diff_runs(doc_a, doc_b, include_wall=True).render_text(),
            )

        expected = render(*live)
        assert "memory peaks" in expected[0][1]
        assert len(expected[2][1]) == 2  # scorecard and profile coverage
        assert "[REGRESSION]" in expected[3]
        assert render(*reloaded) == expected
        assert render(*stored) == expected
