"""Tests for the marketplace crawler and the iteration scheduler."""

from collections import Counter

import pytest

from repro.core import Study, StudyConfig
from repro.core.dataset import PROVENANCE_COMPLETE, add_provenance
from repro.crawler import crawler as crawler_module
from repro.crawler.crawler import IterationCrawl, MarketplaceCrawler
from repro.crawler.extractor import ExtractionError
from repro.faults.injector import _mangle
from repro.marketplaces.public import PublicMarketplaceSite
from repro.marketplaces.registry import MARKETPLACES
from repro.synthetic import WorldBuilder, WorldConfig
from repro.web import http
from repro.web.client import HttpClient
from repro.web.server import Internet, Site
from repro.web.url import url_path


class DuplicateLinkSite(Site):
    """A marketplace whose one index page links a single offer under
    three spellings of its URL: as-is, with a trailing slash, and with
    an upper-case host.  Every spelling serves the offer page."""

    def __init__(self, market: PublicMarketplaceSite, listing_id: str) -> None:
        super().__init__("dup.example", clock=market.clock)
        self._market = market
        self.offer_fetches = 0
        offer = f"/offer/{listing_id}"
        links = "".join(
            f'<li><a class="offer-link" href="{href}">offer</a></li>'
            for href in (offer, offer + "/", f"http://DUP.EXAMPLE{offer}")
        )
        self._index = f"<html><body><ul>{links}</ul></body></html>"

    def handle(self, request, client_id="anon"):
        path = url_path(request.url)
        if path == "/listings":
            return http.html_response(self._index)
        if path.startswith("/offer/"):
            self.offer_fetches += 1
            request.url = request.url.rstrip("/")
        return self._market.handle(request, client_id)


@pytest.fixture(scope="module")
def deployment():
    world = WorldBuilder(WorldConfig(seed=91, scale=0.02, iterations=4)).build()
    net = Internet()
    sites = {}
    for name in ("Accsmarket", "Z2U", "SocialTradia"):
        site = PublicMarketplaceSite(MARKETPLACES[name], world, clock=net.clock)
        net.register(site)
        sites[name] = site
    client = HttpClient(net)
    return world, net, sites, client


class TestMarketplaceCrawler:
    def test_full_coverage_of_active_listings(self, deployment):
        world, _net, sites, client = deployment
        site = sites["Accsmarket"]
        site.current_iteration = world.iterations - 1
        crawler = MarketplaceCrawler(client, "Accsmarket", f"http://{site.host}/listings")
        listings, _sellers, report = crawler.crawl()
        active = {l.listing_id for l in site.active_listings()}
        crawled_ids = {l.offer_url.rsplit("/", 1)[-1] for l in listings}
        assert crawled_ids == active
        assert report.offers_parsed == len(active)
        assert report.errors == 0

    def test_extracted_fields_match_ground_truth(self, deployment):
        world, _net, sites, client = deployment
        site = sites["Z2U"]
        site.current_iteration = world.iterations - 1
        crawler = MarketplaceCrawler(client, "Z2U", f"http://{site.host}/listings")
        listings, _sellers, _report = crawler.crawl()
        truth = {l.listing_id: l for l in world.listings_for_market("Z2U")}
        for record in listings:
            listing_id = record.offer_url.rsplit("/", 1)[-1]
            expected = truth[listing_id]
            assert record.platform == expected.platform.value
            assert record.price_usd == pytest.approx(
                expected.price.as_dollars, abs=1.0
            )
            assert record.category == expected.category

    def test_seller_pages_visited_once_each(self, deployment):
        world, _net, sites, client = deployment
        site = sites["Accsmarket"]
        site.current_iteration = world.iterations - 1
        crawler = MarketplaceCrawler(client, "Accsmarket", f"http://{site.host}/listings")
        listings, sellers, _report = crawler.crawl()
        seller_urls = {l.seller_url for l in listings if l.seller_url}
        assert len(sellers) == len(seller_urls)

    def test_hidden_market_yields_no_sellers(self, deployment):
        world, _net, sites, client = deployment
        site = sites["SocialTradia"]
        site.current_iteration = 0
        crawler = MarketplaceCrawler(
            client, "SocialTradia", f"http://{site.host}/listings"
        )
        _listings, sellers, _report = crawler.crawl()
        assert sellers == []

    def test_payment_methods_collected(self, deployment):
        _world, _net, sites, client = deployment
        crawler = MarketplaceCrawler(
            client, "Z2U", f"http://{sites['Z2U'].host}/listings"
        )
        methods = crawler.collect_payment_methods()
        assert ("Digital Wallets", "PayPal") in methods

    def test_unreachable_host_reports_error(self, deployment):
        _world, _net, _sites, client = deployment
        crawler = MarketplaceCrawler(client, "Ghost", "http://ghost.example/listings")
        listings, _sellers, report = crawler.crawl()
        assert listings == []
        assert report.errors == 1

    def test_offer_url_spellings_fetched_once(self, deployment):
        world, _net, sites, _client = deployment
        market = sites["Accsmarket"]
        market.current_iteration = world.iterations - 1
        listing_id = market.active_listings()[0].listing_id
        net = Internet(clock=market.clock)
        site = net.register(DuplicateLinkSite(market, listing_id))
        crawler = MarketplaceCrawler(
            HttpClient(net), "Accsmarket", "http://dup.example/listings"
        )
        listings, _sellers, report = crawler.crawl()
        assert site.offer_fetches == 1
        assert report.offers_found == 1
        assert [l.offer_url.rsplit("/", 1)[-1] for l in listings] == [listing_id]


class TestIterationCrawl:
    def test_figure2_bookkeeping(self, deployment):
        world, _net, sites, client = deployment

        def set_iteration(i):
            for site in sites.values():
                site.current_iteration = i

        crawl = IterationCrawl(
            client=client,
            seed_urls={
                name: f"http://{site.host}/listings" for name, site in sites.items()
            },
            set_iteration=set_iteration,
            iterations=world.iterations,
        )
        dataset = crawl.run()
        assert len(crawl.active_per_iteration) == world.iterations
        assert len(crawl.cumulative_per_iteration) == world.iterations
        # Cumulative is monotone non-decreasing.
        assert all(
            b >= a for a, b in zip(
                crawl.cumulative_per_iteration, crawl.cumulative_per_iteration[1:]
            )
        )
        # Final cumulative equals distinct listings observed.
        assert crawl.cumulative_per_iteration[-1] == len(dataset.listings)
        # Active never exceeds cumulative.
        assert all(
            a <= c for a, c in zip(
                crawl.active_per_iteration, crawl.cumulative_per_iteration
            )
        )

    def test_first_last_seen_tracked(self, deployment):
        world, _net, sites, client = deployment

        def set_iteration(i):
            for site in sites.values():
                site.current_iteration = i

        crawl = IterationCrawl(
            client=client,
            seed_urls={"Accsmarket": f"http://{sites['Accsmarket'].host}/listings"},
            set_iteration=set_iteration,
            iterations=world.iterations,
        )
        dataset = crawl.run()
        for record in dataset.listings:
            assert 0 <= record.first_seen_iteration <= record.last_seen_iteration
            assert record.last_seen_iteration < world.iterations
        late = [r for r in dataset.listings if r.first_seen_iteration > 0]
        assert late  # replenishment means some listings appear later


def _count_extractions(monkeypatch):
    """Wrap the crawler's two memoized extractors; returns a Counter of
    ``(extractor name, url, body)`` per call that reached them."""
    calls = Counter()
    for name in ("extract_offer", "extract_seller"):
        original = getattr(crawler_module, name)

        def counted(url, body, marketplace, _name=name, _original=original):
            calls[(_name, url, body)] += 1
            return _original(url, body, marketplace)

        monkeypatch.setattr(crawler_module, name, counted)
    return calls


class TestExtractionMemo:
    """A re-visited page is fetched every time but extracted once."""

    def _two_iteration_crawl(self, deployment, monkeypatch):
        """Crawl iterations 0 and 1 with a fresh client; returns the
        crawl, every GET as ``(iteration, url, body)``, each iteration's
        ``Site.request_count`` growth by marketplace, and the extractor
        calls."""
        _world, net, sites, _client = deployment
        client = HttpClient(net)
        for site in sites.values():
            client.get(f"http://{site.host}/")  # robots.txt, before the crawl
        fetched = []
        request_counts = []  # Site.request_count at each iteration's start
        get = client.get

        def recording_get(url, **params):
            response = get(url, **params)
            fetched.append((len(request_counts) - 1, url, response.body))
            return response

        def set_iteration(i):
            request_counts.append(
                {name: site.request_count for name, site in sites.items()})
            for site in sites.values():
                site.current_iteration = i

        monkeypatch.setattr(client, "get", recording_get)
        calls = _count_extractions(monkeypatch)
        crawl = IterationCrawl(
            client=client,
            seed_urls={
                name: f"http://{site.host}/listings" for name, site in sites.items()
            },
            set_iteration=set_iteration,
            iterations=2,
        )
        crawl.run()
        request_counts.append(
            {name: site.request_count for name, site in sites.items()})
        requests = [
            {name: after[name] - before[name] for name in after}
            for before, after in zip(request_counts, request_counts[1:])
        ]
        return crawl, fetched, requests, calls

    def test_each_distinct_page_extracted_once(self, deployment, monkeypatch):
        _crawl, fetched, _requests, calls = self._two_iteration_crawl(
            deployment, monkeypatch)
        visits = [
            ("extract_offer" if "/offer/" in url else "extract_seller", url, body)
            for _i, url, body in fetched
            if "/offer/" in url or "/seller/" in url
        ]
        assert len(set(visits)) < len(visits)  # iteration 1 re-opens pages
        assert set(calls) == set(visits)
        assert set(calls.values()) == {1}

    def test_every_page_still_requested(self, deployment, monkeypatch):
        _world, _net, sites, _client = deployment
        crawl, fetched, requests, _calls = self._two_iteration_crawl(
            deployment, monkeypatch)
        for iteration in (0, 1):
            for name, site in sites.items():
                site.current_iteration = iteration
                active = site.active_listings()
                prefix = f"http://{site.host}/"
                urls = [url for i, url, _ in fetched
                        if i == iteration and url.startswith(prefix)]
                offers = {f"{prefix}offer/{l.listing_id}" for l in active}
                sellers = {f"{prefix}seller/{l.seller_id}"
                           for l in active
                           if site.spec.sellers_public and l.seller_id}
                assert {u for u in urls if "/offer/" in u} == offers
                assert {u for u in urls if "/seller/" in u} == sellers
                assert requests[iteration][name] == len(urls)
        assert crawl.active_per_iteration[1] > 0

    def test_hit_is_an_independent_copy(self, deployment):
        world, _net, sites, client = deployment
        site = sites["Accsmarket"]
        site.current_iteration = world.iterations - 1
        memo = {}
        seed = f"http://{site.host}/listings"
        first, first_sellers, _ = MarketplaceCrawler(
            client, "Accsmarket", seed, memo=memo).crawl()
        second, second_sellers, _ = MarketplaceCrawler(
            client, "Accsmarket", seed, memo=memo).crawl()
        assert first and first_sellers
        for a, b in zip(first + first_sellers, second + second_sellers):
            assert a == b
            assert a is not b
        for record in first:
            add_provenance(record, "partial:test")
        third, _, _ = MarketplaceCrawler(
            client, "Accsmarket", seed, memo=memo).crawl()
        assert [r.provenance for r in third] == \
            [PROVENANCE_COMPLETE] * len(third)

    def test_mangled_body_is_extracted_afresh(self, deployment, monkeypatch):
        world, _net, sites, client = deployment
        site = sites["Accsmarket"]
        site.current_iteration = world.iterations - 1
        url = f"http://{site.host}/offer/{site.active_listings()[0].listing_id}"
        body = client.get(url).body
        crawler = MarketplaceCrawler(client, "Accsmarket",
                                     f"http://{site.host}/listings")
        calls = _count_extractions(monkeypatch)
        crawler._extract(crawler_module.extract_offer, url, body)
        mangled = _mangle(body)
        assert mangled != body
        for _ in range(2):
            with pytest.raises(ExtractionError):
                crawler._extract(crawler_module.extract_offer, url, mangled)
        assert calls[("extract_offer", url, body)] == 1
        assert calls[("extract_offer", url, mangled)] == 2

    def test_memo_does_not_outlive_its_study(self, monkeypatch):
        calls = _count_extractions(monkeypatch)
        totals = []
        for _ in range(2):
            calls.clear()
            Study(StudyConfig(seed=99, scale=0.01, iterations=2)).run()
            totals.append(sum(calls.values()))
        assert totals[0] > 0
        assert totals[0] == totals[1]
