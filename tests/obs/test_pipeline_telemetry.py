"""Telemetry threaded through the pipeline: manifest, events, determinism."""

import json
import os

import pytest

from repro.core import Study, StudyConfig
from repro.crawler.crawler import MarketplaceCrawler
from repro.marketplaces.public import PublicMarketplaceSite
from repro.marketplaces.registry import MARKETPLACES
from repro.obs import Telemetry, build_manifest, write_manifest
from repro.web import http
from repro.web.client import HttpClient
from repro.web.server import Internet, Site

CONFIG = StudyConfig(seed=424, scale=0.01, iterations=2)


@pytest.fixture(scope="module")
def traced_run():
    telemetry = Telemetry()
    result = Study(CONFIG, telemetry=telemetry).run()
    return result, telemetry


class TestStudyTelemetry:
    def test_stage_list_covers_the_pipeline(self, traced_run):
        _result, telemetry = traced_run
        names = [row["name"] for row in telemetry.tracer.stage_summary()]
        for stage in ("build_world", "deploy", "iteration_crawl",
                      "payment_pages", "profile_collection", "status_sweep",
                      "underground_collection"):
            assert stage in names, stage

    def test_root_span_covers_simulated_time(self, traced_run):
        result, telemetry = traced_run
        root = [s for s in telemetry.tracer.spans if s.parent_id is None][-1]
        assert root.name == "study"
        assert root.sim_duration == pytest.approx(result.simulated_seconds)

    def test_request_spans_nest_under_pages(self, traced_run):
        _result, telemetry = traced_run
        spans = {s.span_id: s for s in telemetry.tracer.spans}
        requests = [s for s in telemetry.tracer.spans if s.name == "http.request"]
        assert requests, "request spans recorded"
        page_parents = [
            spans[s.parent_id].name for s in requests if s.parent_id in spans
        ]
        assert "crawl.page" in page_parents

    def test_http_metrics_match_client_accounting(self, traced_run):
        result, telemetry = traced_run
        counter = telemetry.metrics.get("http_requests_total")
        assert counter is not None
        served = telemetry.metrics.get("server_requests_total")
        # Every client request was served by a registered host.
        assert counter.total() == served.total()
        assert counter.total() > 0

    def test_manifest_matches_crawl_reports(self, traced_run, tmp_path):
        result, telemetry = traced_run
        manifest = build_manifest(CONFIG, result, telemetry)
        assert manifest["seed"] == CONFIG.seed
        assert manifest["config"]["scale"] == CONFIG.scale
        stage_names = [s["name"] for s in manifest["stages"]]
        assert "iteration_crawl" in stage_names
        reports = manifest["crawl"]["reports"]
        assert len(reports) == len(result.crawl_reports)
        assert manifest["crawl"]["errors_total"] == sum(
            r.errors for r in result.crawl_reports
        )
        path = write_manifest(str(tmp_path), manifest)
        with open(path) as handle:
            loaded = json.load(handle)
        assert loaded["schema"] == "repro.run-manifest/v1"
        assert loaded["dataset"] == result.dataset.summary()

    def test_export_writes_all_three_files(self, traced_run, tmp_path):
        _result, telemetry = traced_run
        paths = telemetry.export(str(tmp_path))
        assert sorted(os.path.basename(p) for p in paths) == [
            "events.jsonl", "metrics.json", "trace.jsonl",
        ]
        for path in paths:
            assert os.path.exists(path)


class TestDeterminism:
    def test_same_seed_same_sim_spans_and_events(self):
        def run():
            telemetry = Telemetry()
            Study(CONFIG, telemetry=telemetry).run()
            spans = [
                (s.name, s.span_id, s.parent_id, s.sim_start, s.sim_end)
                for s in telemetry.tracer.spans
            ]
            events = [
                (e.kind, e.sim_time, e.level, e.fields)
                for e in telemetry.events.events
            ]
            return spans, events

        first, second = run(), run()
        assert first[0] == second[0]
        assert first[1] == second[1]


class BrokenMarkupSite(Site):
    """Serves a structurally broken page for one offer id."""

    def __init__(self, inner: PublicMarketplaceSite, break_id: str) -> None:
        super().__init__(inner.host, clock=inner.clock)
        self._inner = inner
        self._break_id = break_id

    def handle(self, request, client_id="anon"):
        if request.url.endswith(f"/offer/{self._break_id}"):
            return http.html_response("<html><body><p>oops</p></body></html>")
        return self._inner.handle(request, client_id)


class TestCrawlErrorsFeedEvents:
    def test_extraction_error_is_structured_and_logged(self, world):
        spec = MARKETPLACES["Accsmarket"]
        net = Internet()
        inner = PublicMarketplaceSite(spec, world, clock=net.clock)
        inner.current_iteration = world.iterations - 1
        broken_id = inner.active_listings()[0].listing_id
        net.register(BrokenMarkupSite(inner, broken_id))
        telemetry = Telemetry()
        telemetry.set_clock(net.clock)
        client = HttpClient(net, telemetry=telemetry)
        crawler = MarketplaceCrawler(
            client, "Accsmarket", f"http://{spec.host}/listings",
            telemetry=telemetry, iteration=0,
        )
        _listings, _sellers, report = crawler.crawl()
        assert report.errors == 1
        [error] = report.error_details
        assert error.kind == "extraction_error"
        assert f"/offer/{broken_id}" in error.url
        [event] = telemetry.events.events
        assert event.kind == "extraction_error"
        assert event.fields["url"] == error.url
        assert event.fields["marketplace"] == "Accsmarket"
        assert event.fields["iteration"] == 0
