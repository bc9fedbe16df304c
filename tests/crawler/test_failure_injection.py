"""Failure injection: the crawler under flaky sites and hostile timing.

A measurement crawler's value is what it does when the web misbehaves:
intermittent 500s, rate limiting, malformed pages, listings vanishing
mid-crawl.  These tests wrap marketplace sites with fault layers and
check the crawler degrades the way the paper's five-month crawl had to.
"""

import pytest

from repro.crawler.crawler import MarketplaceCrawler
from repro.obs import Telemetry
from repro.crawler.profile_collector import ProfileCollector
from repro.marketplaces.public import PublicMarketplaceSite
from repro.marketplaces.registry import MARKETPLACES
from repro.platforms.base import PLATFORM_HOSTS, profile_url
from repro.platforms.deploy import deploy_platforms
from repro.synthetic import WorldBuilder, WorldConfig
from repro.util.rng import RngTree
from repro.web import http
from repro.web.client import HttpClient
from repro.web.server import Internet, Site


@pytest.fixture()
def world():
    return WorldBuilder(WorldConfig(seed=55, scale=0.01, iterations=2)).build()


class FlakySite(Site):
    """Wraps another site, answering every nth request with ``status``
    (a 503 by default); a 429 asks the client to come back after
    ``RETRY_AFTER`` seconds."""

    RETRY_AFTER = 2.0

    def __init__(self, inner: Site, fail_every: int,
                 status: int = http.SERVICE_UNAVAILABLE) -> None:
        super().__init__(inner.host, clock=inner.clock,
                         latency_seconds=inner.latency_seconds)
        self._inner = inner
        self._fail_every = fail_every
        self._status = status
        self._count = 0

    def handle(self, request, client_id="anon"):
        self._count += 1
        if self._count % self._fail_every == 0:
            response = http.error_response(self._status)
            if self._status == http.TOO_MANY_REQUESTS:
                response.headers["Retry-After"] = f"{self.RETRY_AFTER:.1f}"
            return response
        return self._inner.handle(request, client_id)


class BrokenMarkupSite(Site):
    """Serves structurally broken offer pages for some offers."""

    def __init__(self, inner: PublicMarketplaceSite, break_ids) -> None:
        super().__init__(inner.host, clock=inner.clock)
        self._inner = inner
        self._break_ids = set(break_ids)

    def handle(self, request, client_id="anon"):
        for broken in self._break_ids:
            if request.url.endswith(f"/offer/{broken}"):
                return http.html_response("<html><body><p>oops</p></body></html>")
        return self._inner.handle(request, client_id)


def crawl_market(net, name, world, site_cls=None, **wrap_kwargs):
    spec = MARKETPLACES[name]
    inner = PublicMarketplaceSite(spec, world, clock=net.clock)
    inner.current_iteration = world.iterations - 1
    site = site_cls(inner, **wrap_kwargs) if site_cls else inner
    if site is not inner and isinstance(site, BrokenMarkupSite):
        site._inner.current_iteration = world.iterations - 1
    net.register(site)
    client = HttpClient(net)
    crawler = MarketplaceCrawler(client, name, f"http://{spec.host}/listings")
    return inner, crawler.crawl()


class TestFlakyMarketplace:
    def test_full_coverage_despite_intermittent_503(self, world):
        net = Internet()
        inner, (listings, _sellers, report) = crawl_market(
            net, "Accsmarket", world, FlakySite, fail_every=7
        )
        # Retries recover every failure: full coverage, zero errors.
        assert report.offers_parsed == len(inner.active_listings())
        assert report.errors == 0

    def test_hard_down_market_reports_error(self, world):
        net = Internet()
        spec = MARKETPLACES["Z2U"]
        down = Site(spec.host, clock=net.clock)
        down.route("GET", "/listings",
                   lambda r: http.error_response(http.SERVICE_UNAVAILABLE))
        net.register(down)
        client = HttpClient(net)
        crawler = MarketplaceCrawler(client, "Z2U", f"http://{spec.host}/listings")
        listings, _sellers, report = crawler.crawl()
        assert listings == []
        assert report.pages_fetched == 1  # the failed index fetch


class TestRateLimitedMarketplace:
    def test_crawler_backs_off_and_completes(self, world):
        net = Internet()
        spec = MARKETPLACES["MidMan"]
        site = PublicMarketplaceSite(spec, world, clock=net.clock)
        site.current_iteration = world.iterations - 1
        net.register(FlakySite(site, fail_every=4,
                               status=http.TOO_MANY_REQUESTS))
        telemetry = Telemetry()
        client = HttpClient(net, telemetry=telemetry)
        crawler = MarketplaceCrawler(client, "MidMan", f"http://{spec.host}/listings")
        _listings, _sellers, report = crawler.crawl()
        assert report.offers_parsed == len(site.active_listings())
        # The 429s were absorbed by backoff, each retry waiting at least
        # as long as Retry-After asked.
        retries = telemetry.metrics.get("http_retries_total").value(host=spec.host)
        waited = telemetry.metrics.get("http_retry_wait_seconds_total").value(
            host=spec.host)
        assert retries > 0
        assert waited >= retries * FlakySite.RETRY_AFTER


class TestMalformedPages:
    def test_broken_offers_skipped_rest_collected(self, world):
        net = Internet()
        market_listings = world.listings_for_market("FameSwap")
        break_ids = [l.listing_id for l in market_listings[:2]]
        inner, (listings, _sellers, report) = crawl_market(
            net, "FameSwap", world, BrokenMarkupSite, break_ids=break_ids
        )
        active = inner.active_listings()
        broken_active = sum(1 for l in active if l.listing_id in break_ids)
        assert report.errors == broken_active
        assert report.offers_parsed == len(active) - broken_active


class TestPlatformOutage:
    def test_collector_survives_api_500s(self, world):
        net = Internet()
        deploy_platforms(net, world, enforce_moderation=False)
        account = next(iter(world.accounts.values()))
        host = PLATFORM_HOSTS[account.platform]
        site = net.site(host)
        original_routes = list(site._routes)
        site._routes = []
        site.route("GET", "/api/users/<handle>",
                   lambda r: http.error_response(http.INTERNAL_SERVER_ERROR))
        client = HttpClient(net)
        collector = ProfileCollector(client)
        result = collector.collect_profile(profile_url(account.platform, account.handle))
        profile, posts = result
        assert profile.status == "error"
        assert posts == []
        site._routes = original_routes

    def test_error_profiles_not_counted_inactive(self, world):
        from repro.analysis.efficacy import EfficacyAnalysis
        from repro.core.dataset import MeasurementDataset, ProfileRecord

        ds = MeasurementDataset()
        ds.profiles = [
            ProfileRecord(profile_url="u1", platform="X", handle="a", status="error"),
            ProfileRecord(profile_url="u2", platform="X", handle="b", status="active"),
        ]
        report = EfficacyAnalysis().run(ds)
        # A transport error is not evidence of platform action.
        assert report.per_platform["X"].inactive_accounts == 0
