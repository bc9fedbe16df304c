"""One section list per report: the text and HTML formatters print the
same tables, and every string from a run's artifacts is escaped on the
HTML pages."""

import copy
import json
import os
import shutil
from html.parser import HTMLParser

import pytest

from repro.cli import main
from repro.monitor import render_status
from repro.monitor.daemon import CYCLES_DIRNAME, run_id_for_cycle
from repro.monitor.ledger import LEDGER_FILENAME, ScheduleLedger
from repro.obs import (
    RunRegistry,
    compute_trends,
    evaluate_alerts,
    render_fleet_html,
    render_health_html,
    render_trace_summary,
    trace_document,
    write_alerts,
)

MARKUP = "<script>alert(1)</script>"


@pytest.fixture(scope="module")
def degraded_run(tmp_path_factory):
    """A profiled, archived run whose network stage failed: every table
    of the run report has rows."""
    base = tmp_path_factory.mktemp("sections")
    telemetry = str(base / "telemetry")
    assert main([
        "run", "--scale", "0.01", "--iterations", "2", "--seed", "5",
        "--profile", "--fail-stage", "network",
        "--archive-dir", str(base / "archive"),
        "--out", str(base / "out"), "--telemetry-out", telemetry,
    ]) == 0
    return telemetry


class _Page(HTMLParser):
    """Every start tag, the decoded text, and per ``<h2>`` its title and
    table rows (one list of cell texts per ``<tr>`` in ``<tbody>``)."""

    def __init__(self, page: str):
        super().__init__()
        self.tags, self.text, self.sections = set(), [], []
        self._title = self._cell = self._body = False
        self.feed(page)
        self.close()

    def handle_starttag(self, tag, attrs):
        self.tags.add(tag)
        if tag == "h2":
            self.sections.append(("", []))
            self._title = True
        elif tag == "tbody":
            self._body = True
        elif tag == "tr" and self._body:
            self.sections[-1][1].append([])
        elif tag == "td" and self._body:
            self.sections[-1][1][-1].append("")
            self._cell = True

    def handle_endtag(self, tag):
        if tag == "h2":
            self._title = False
        elif tag == "tbody":
            self._body = False
        elif tag == "td":
            self._cell = False

    def handle_data(self, data):
        self.text.append(data)
        if self._title:
            title, rows = self.sections[-1]
            self.sections[-1] = (title + data, rows)
        elif self._cell:
            self.sections[-1][1][-1][-1] += data


def _text_sections(text: str):
    """(title, rows) per block of a text report; a row is its line with
    the column padding collapsed."""
    sections = []
    for block in text.split("\n\n"):
        lines = block.split("\n")
        rule = next((index for index, line in enumerate(lines)
                     if line and set(line) <= {"-", " "}), None)
        if rule is None:
            sections.append((lines[0], []))
        else:
            rows = [" ".join(line.split()) for line in lines[rule + 1:]]
            sections.append((lines[0][:-1], rows))
    return sections


def _html_sections(page: str):
    """(title, rows) per ``<h2>`` of a page, titles in their text case."""
    return [
        (title[:1].lower() + title[1:],
         [" ".join(" ".join(cells).split()) for cells in rows])
        for title, rows in _Page(page).sections
    ]


class TestOneSectionList:
    def test_text_and_html_show_the_same_tables(self, degraded_run):
        document = trace_document(degraded_run)
        text = _text_sections(render_trace_summary(document))
        page = _html_sections(render_health_html(document))
        assert [title for title, _ in page] == [title for title, _ in text]
        assert ([len(rows) for _, rows in page]
                == [len(rows) for _, rows in text])
        titles = " | ".join(title for title, _ in text)
        for name in ("fidelity scorecard", "stage failures (1 degraded)",
                     "contracts:", "crawl archive:", "per-stage summary",
                     "hot stages", "memory peaks", "http client, per host",
                     "crawl totals"):
            assert name in titles

    def test_every_view_prints_the_same_alert_lines(self, degraded_run,
                                                    tmp_path):
        document = trace_document(degraded_run)
        spiky = copy.deepcopy(document)
        spiky["crawl"]["error_rate"] = 0.5
        spiky["archive"] = None  # its archive.* metrics become notes
        with RunRegistry.open(str(tmp_path / "runs.sqlite")) as registry:
            for index in range(3):
                registry.ingest_document(document, run_id=f"steady-{index}")
            registry.ingest_document(spiky, run_id="spiky")
            report = evaluate_alerts(registry)
            runs, series = registry.runs(), compute_trends(registry)
        assert report.alerts and report.notes

        state = tmp_path / "state"
        cycle_dir = state / CYCLES_DIRNAME / run_id_for_cycle(0)
        cycle_dir.mkdir(parents=True)
        alerts_path = write_alerts(str(cycle_dir), report)
        ledger = ScheduleLedger.open(str(state / LEDGER_FILENAME), "h")
        ledger.append({"cycle": 0, "status": "ingested", "seq": 4,
                       "alerts": len(report.alerts)})
        with open(alerts_path, encoding="utf-8") as handle:
            alerts = json.load(handle)

        text = report.render_text()
        (in_text,) = _text_sections(text)
        (in_page,) = [section for section in
                      _html_sections(render_fleet_html(runs, series, alerts))
                      if section[0] == in_text[0]]
        assert in_text[0].startswith(
            f"{len(report.alerts)} alert(s) on run spiky")
        assert len(in_text[1]) == len(report.alerts) + len(report.notes)
        assert in_page == in_text
        assert text in render_status(str(state))


class TestOutsideScorecardInput:
    def test_markup_is_escaped_on_both_pages(self, degraded_run, tmp_path):
        document = trace_document(degraded_run)
        entry = document["scorecard"]["entries"][0]
        entry["name"] = f"metric{MARKUP}"
        entry["low"] = MARKUP
        entry["passed"] = False
        http, crawl = document["http"], document["crawl"]["by_marketplace"]
        http[f"host{MARKUP}"] = next(iter(http.values()))
        crawl[f"market{MARKUP}"] = next(iter(crawl.values()))
        health = _Page(render_health_html(document))
        assert "script" not in health.tags
        shown = "".join(health.text)
        for value in (f"metric{MARKUP}", f"[{MARKUP}, ", f"host{MARKUP}",
                      f"market{MARKUP}"):
            assert value in shown
        with RunRegistry.open(str(tmp_path / "runs.sqlite")) as registry:
            registry.ingest_document(document, run_id=f"run{MARKUP}")
            fleet = render_fleet_html(
                registry.runs(), compute_trends(registry),
                evaluate_alerts(registry).to_dict(), registry_path=MARKUP)
        page = _Page(fleet)
        assert "script" not in page.tags
        shown = "".join(page.text)
        for value in (f"fidelity.metric{MARKUP}", f"run{MARKUP}",
                      f"Fleet view: {MARKUP}"):
            assert value in shown

    def test_null_bound_is_shown_not_fatal(self, degraded_run, tmp_path,
                                           capsys):
        bad = str(tmp_path / "null-bound")
        shutil.copytree(degraded_run, bad)
        path = os.path.join(bad, "scorecard.json")
        with open(path) as handle:
            card = json.load(handle)
        card["entries"][0]["low"] = None
        with open(path, "w") as handle:
            json.dump(card, handle)
        out = str(tmp_path / "health.html")
        assert main(["health", bad, "--out", out]) == 0
        assert main(["health", bad, "--out", out, "--strict"]) == 1
        captured = capsys.readouterr()
        assert "UNHEALTHY" in captured.out
        assert "Traceback" not in captured.err
        assert "[None, " in "".join(_Page(open(out).read()).text)
