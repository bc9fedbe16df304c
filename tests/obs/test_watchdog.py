"""Crawl-health watchdogs: each check, event wiring, injected failures."""

import pytest

from repro.crawler.crawler import CrawlReport
from repro.marketplaces.public import PublicMarketplaceSite
from repro.marketplaces.registry import MARKETPLACES
from repro.obs import CrawlWatchdog, Telemetry
from repro.synthetic import WorldBuilder, WorldConfig
from repro.util.simtime import SimClock
from repro.web import http
from repro.web.client import HttpClient
from repro.web.server import Internet, Site


def make_report(marketplace="Accsmarket", pages=20, parsed=20, errors=0,
                ban_statuses=()):
    report = CrawlReport(marketplace=marketplace, pages_fetched=pages,
                         offers_found=parsed, offers_parsed=parsed)
    for i in range(errors):
        report.record_error(f"http://x/{i}", "http_error", "boom")
    for i, status in enumerate(ban_statuses):
        report.record_error(f"http://x/ban{i}", "http_status",
                            f"status {status}")
    return report


def make_watchdog(expected=None, clock=None):
    telemetry = Telemetry()
    watchdog = CrawlWatchdog(
        telemetry=telemetry, clock=clock,
        expected_counts=(lambda: dict(expected)) if expected else None,
    )
    return watchdog, telemetry


class TestCoverageAuditor:
    def test_full_coverage_is_silent(self):
        watchdog, telemetry = make_watchdog(expected={"Accsmarket": 20})
        watchdog.begin_iteration(0)
        watchdog.end_iteration(0, [make_report(parsed=20)])
        assert watchdog.findings == []
        gauge = telemetry.metrics.get("crawl_coverage_ratio")
        assert gauge.value(marketplace="Accsmarket") == 1.0

    def test_shortfall_warns(self):
        watchdog, _ = make_watchdog(expected={"Accsmarket": 20})
        watchdog.begin_iteration(0)
        watchdog.end_iteration(0, [make_report(parsed=14)])
        (finding,) = watchdog.findings
        assert finding.check == "coverage"
        assert finding.severity == "warning"
        assert finding.subject == "Accsmarket"
        assert finding.value == pytest.approx(0.7)

    def test_collapse_is_critical(self):
        watchdog, _ = make_watchdog(expected={"Accsmarket": 20})
        watchdog.begin_iteration(0)
        watchdog.end_iteration(0, [make_report(parsed=4)])
        (finding,) = watchdog.findings
        assert finding.severity == "critical"
        assert finding.value == pytest.approx(0.2)

    def test_reports_aggregated_per_marketplace(self):
        # Two reports for the same marketplace in one iteration sum up.
        watchdog, _ = make_watchdog(expected={"Accsmarket": 20})
        watchdog.begin_iteration(0)
        watchdog.end_iteration(0, [make_report(parsed=10, pages=0),
                                   make_report(parsed=10, pages=20)])
        assert watchdog.findings == []


class TestErrorAndBanRates:
    def test_high_error_rate_warns(self):
        watchdog, _ = make_watchdog()
        watchdog.begin_iteration(0)
        watchdog.end_iteration(0, [make_report(pages=10, errors=4)])
        checks = {f.check for f in watchdog.findings}
        assert "error_rate" in checks
        finding = next(f for f in watchdog.findings if f.check == "error_rate")
        assert finding.severity == "warning"
        assert finding.value == pytest.approx(0.4)

    def test_ban_statuses_are_critical(self):
        watchdog, _ = make_watchdog()
        watchdog.begin_iteration(0)
        watchdog.end_iteration(
            0, [make_report(pages=10, ban_statuses=("429", "403"))]
        )
        finding = next(f for f in watchdog.findings if f.check == "ban_rate")
        assert finding.severity == "critical"
        assert finding.value == pytest.approx(0.2)
        assert "rate-limited or banned" in finding.message

    def test_plain_500s_do_not_read_as_bans(self):
        watchdog, _ = make_watchdog()
        watchdog.begin_iteration(0)
        watchdog.end_iteration(
            0, [make_report(pages=100, ban_statuses=("500",) * 20)]
        )
        checks = {f.check for f in watchdog.findings}
        assert "ban_rate" not in checks

    def test_tiny_marketplaces_not_judged(self):
        watchdog, _ = make_watchdog()
        watchdog.begin_iteration(0)
        watchdog.end_iteration(0, [make_report(pages=2, errors=2)])
        assert watchdog.findings == []


class TestStallDetector:
    def test_zero_pages_is_critical(self):
        watchdog, _ = make_watchdog()
        watchdog.begin_iteration(0)
        watchdog.end_iteration(0, [make_report(pages=0, parsed=0)])
        finding = next(f for f in watchdog.findings if f.check == "stall")
        assert finding.severity == "critical"
        assert "no pages" in finding.message

    def test_slow_iteration_flagged_against_median(self):
        clock = SimClock()
        watchdog, _ = make_watchdog(clock=clock)
        for iteration in range(3):  # three typical ~100s iterations
            watchdog.begin_iteration(iteration)
            clock.advance(100.0)
            watchdog.end_iteration(iteration, [make_report()])
        assert watchdog.findings == []
        watchdog.begin_iteration(3)
        clock.advance(100.0 * 50)  # blows past stall_factor x median
        watchdog.end_iteration(3, [make_report()])
        (finding,) = watchdog.findings
        assert finding.check == "stall"
        assert finding.severity == "warning"
        assert finding.iteration == 3


class TestReporting:
    def test_findings_become_events_with_mapped_levels(self):
        watchdog, telemetry = make_watchdog(expected={"Accsmarket": 20})
        watchdog.begin_iteration(0)
        watchdog.end_iteration(
            0, [make_report(parsed=4, pages=10, errors=4)]
        )
        by_kind = {e.kind: e for e in telemetry.events.events}
        assert by_kind["watchdog.coverage"].level == "error"  # critical
        assert by_kind["watchdog.error_rate"].level == "warning"
        assert by_kind["watchdog.coverage"].fields["subject"] == "Accsmarket"

    def test_finish_sets_severity_gauge(self):
        watchdog, telemetry = make_watchdog(expected={"Accsmarket": 20})
        watchdog.begin_iteration(0)
        watchdog.end_iteration(0, [make_report(parsed=14)])
        watchdog.finish()
        gauge = telemetry.metrics.get("watchdog_findings")
        assert gauge.value(severity="warning") == 1.0
        assert gauge.value(severity="critical") == 0.0

    def test_summary_shape(self):
        watchdog, _ = make_watchdog(expected={"Accsmarket": 20})
        watchdog.begin_iteration(0)
        watchdog.end_iteration(0, [make_report(parsed=4)])
        summary = watchdog.summary()
        assert summary["counts"] == {"critical": 1}
        assert summary["config"] == {
            "coverage_floor": 0.85,
            "error_rate_ceiling": 0.25,
            "ban_rate_ceiling": 0.10,
            "stall_factor": 5.0,
        }
        (finding,) = summary["findings"]
        assert finding["check"] == "coverage"
        assert finding["iteration"] == 0


class BrokenMarkupSite(Site):
    """Serves structurally broken offer pages for the given offer ids."""

    def __init__(self, inner: PublicMarketplaceSite, break_ids) -> None:
        super().__init__(inner.host, clock=inner.clock)
        self._inner = inner
        self._break_ids = set(break_ids)

    def handle(self, request, client_id="anon"):
        for broken in self._break_ids:
            if request.url.endswith(f"/offer/{broken}"):
                return http.html_response("<html><body>oops</body></html>")
        return self._inner.handle(request, client_id)


class TestInjectedFailures:
    """End to end: a real crawl over a sabotaged marketplace must trip
    the coverage auditor the same way a silent markup change would have
    hurt the paper's five-month crawl."""

    def test_broken_markup_trips_coverage_and_error_rate(self):
        from repro.crawler.crawler import MarketplaceCrawler

        world = WorldBuilder(
            WorldConfig(seed=55, scale=0.01, iterations=2)
        ).build()
        net = Internet()
        spec = MARKETPLACES["FameSwap"]
        inner = PublicMarketplaceSite(spec, world, clock=net.clock)
        inner.current_iteration = world.iterations - 1
        active = inner.active_listings()
        assert len(active) >= 4
        # Break every active offer page but one.
        site = BrokenMarkupSite(
            inner, [l.listing_id for l in active[:-1]]
        )
        net.register(site)

        watchdog, telemetry = make_watchdog(clock=net.clock)
        watchdog._expected_counts = lambda: {
            "FameSwap": len(inner.active_listings())
        }
        client = HttpClient(net)
        crawler = MarketplaceCrawler(
            client, "FameSwap", f"http://{spec.host}/listings"
        )
        watchdog.begin_iteration(0)
        _listings, _sellers, report = crawler.crawl()
        watchdog.end_iteration(0, [report])
        watchdog.finish()

        checks = {f.check for f in watchdog.findings}
        assert "coverage" in checks
        coverage = next(f for f in watchdog.findings if f.check == "coverage")
        assert coverage.severity == "critical"
        assert coverage.subject == "FameSwap"
        assert any(
            e.kind == "watchdog.coverage" for e in telemetry.events.events
        )
        gauge = telemetry.metrics.get("watchdog_findings")
        assert gauge.value(severity="critical") >= 1.0

    def test_pipeline_run_with_healthy_crawl_has_no_findings(self):
        from repro.core import Study, StudyConfig

        telemetry = Telemetry()
        result = Study(
            StudyConfig(seed=1307, scale=0.01, iterations=2,
                        scorecard_enabled=False),
            telemetry=telemetry,
        ).run()
        assert result.watchdog is not None
        assert result.watchdog.findings == []
        gauge = telemetry.metrics.get("watchdog_findings")
        assert gauge.value(severity="critical") == 0.0
