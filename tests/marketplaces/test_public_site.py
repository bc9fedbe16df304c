"""Tests for the public marketplace sites and registry."""

import dataclasses

import pytest

from repro.marketplaces.registry import MARKETPLACES, market_host, seed_urls
from repro.marketplaces.public import PublicMarketplaceSite
from repro.synthetic import WorldBuilder, WorldConfig, calibration as cal
from repro.web.client import HttpClient
from repro.web.html_parser import parse_html
from repro.web.server import Internet


@pytest.fixture(scope="module")
def deployed():
    world = WorldBuilder(WorldConfig(seed=71, scale=0.02, iterations=3)).build()
    net = Internet()
    sites = {}
    for name, spec in MARKETPLACES.items():
        site = PublicMarketplaceSite(spec, world, clock=net.clock)
        net.register(site)
        sites[name] = site
    client = HttpClient(net)
    return world, sites, client


class TestRegistry:
    def test_eleven_marketplaces(self):
        assert len(MARKETPLACES) == 11
        assert set(MARKETPLACES) == set(cal.MARKETPLACE_TABLE1)

    def test_hidden_seller_flags(self):
        for name, spec in MARKETPLACES.items():
            assert spec.sellers_public == (name not in cal.SELLER_HIDDEN_MARKETS)

    def test_hosts_are_synthetic(self):
        for spec in MARKETPLACES.values():
            assert spec.host.endswith(".example")

    def test_market_host_slugging(self):
        assert market_host("Accsmarket") == "accsmarket.example"

    def test_seed_urls_point_to_listings(self):
        urls = seed_urls()
        assert len(urls) == 11
        assert all(u.endswith("/listings") for u in urls)

    def test_all_three_themes_used(self):
        themes = {spec.theme for spec in MARKETPLACES.values()}
        assert themes == {"cards", "table", "dl"}


class TestListingIndex:
    def test_index_paginates(self, deployed):
        world, sites, client = deployed
        spec = MARKETPLACES["Accsmarket"]
        response = client.get(f"http://{spec.host}/listings")
        assert response.ok
        tree = parse_html(response.body)
        offers = tree.find_all("a", class_="offer-link")
        assert 0 < len(offers) <= spec.page_size

    def test_out_of_range_page_404(self, deployed):
        _world, _sites, client = deployed
        spec = MARKETPLACES["Accsmarket"]
        response = client.get(f"http://{spec.host}/listings", page="9999")
        assert response.status == 404

    def test_landing_page_links(self, deployed):
        _world, _sites, client = deployed
        spec = MARKETPLACES["FameSwap"]
        response = client.get(f"http://{spec.host}/")
        tree = parse_html(response.body)
        assert tree.find("a", class_="browse-link") is not None


class TestOfferPages:
    def _first_offer(self, client, host):
        response = client.get(f"http://{host}/listings")
        tree = parse_html(response.body)
        href = tree.find("a", class_="offer-link").get("href")
        return client.get(f"http://{host}{href}")

    def test_cards_theme_structure(self, deployed):
        _w, _s, client = deployed
        response = self._first_offer(client, MARKETPLACES["Accsmarket"].host)
        tree = parse_html(response.body)
        assert tree.find(class_="offer-card") is not None
        assert tree.find(class_="offer-price") is not None

    def test_table_theme_structure(self, deployed):
        _w, _s, client = deployed
        response = self._first_offer(client, MARKETPLACES["Z2U"].host)
        tree = parse_html(response.body)
        table = tree.find("table", class_="offer-details")
        assert table is not None
        headers = {th.text.strip() for th in table.find_all("th")}
        assert "Price" in headers

    def test_dl_theme_structure(self, deployed):
        _w, _s, client = deployed
        response = self._first_offer(client, MARKETPLACES["SocialTradia"].host)
        tree = parse_html(response.body)
        assert tree.find("dl", class_="offer-info") is not None

    def test_unknown_offer_404(self, deployed):
        _w, _s, client = deployed
        host = MARKETPLACES["Accsmarket"].host
        assert client.get(f"http://{host}/offer/nope").status == 404

    def test_hidden_market_offer_has_no_seller_link(self, deployed):
        _w, _s, client = deployed
        response = self._first_offer(client, MARKETPLACES["SocialTradia"].host)
        tree = parse_html(response.body)
        assert tree.find("a", class_="seller-link") is None


class TestSellerPages:
    def test_public_market_serves_seller(self, deployed):
        world, _s, client = deployed
        seller = next(
            s for s in world.sellers.values() if s.marketplace == "Accsmarket"
        )
        host = MARKETPLACES["Accsmarket"].host
        response = client.get(f"http://{host}/seller/{seller.seller_id}")
        assert response.ok
        tree = parse_html(response.body)
        assert tree.find(class_="seller-name").text == seller.name

    def test_hidden_market_seller_404(self, deployed):
        _w, _s, client = deployed
        host = MARKETPLACES["TooFame"].host
        assert client.get(f"http://{host}/seller/anything").status == 404


class TestPaymentsPages:
    def test_disclosing_market_lists_methods(self, deployed):
        _w, _s, client = deployed
        response = client.get(f"http://{MARKETPLACES['Z2U'].host}/payments")
        tree = parse_html(response.body)
        methods = {li.text.strip() for li in tree.find_all("li", class_="payment-method")}
        assert "PayPal" in methods
        assert "Visa" in methods

    def test_undisclosed_market_shows_nothing(self, deployed):
        _w, _s, client = deployed
        response = client.get(f"http://{MARKETPLACES['Accsmarket'].host}/payments")
        tree = parse_html(response.body)
        assert tree.find_all("li", class_="payment-method") == []
        assert tree.find(class_="payment-unknown") is not None


class TestIterationAwareness:
    def test_delisted_offers_disappear(self, deployed):
        world, sites, client = deployed
        site = sites["Accsmarket"]
        delisted = next(
            l for l in world.listings_for_market("Accsmarket")
            if l.delisted_iteration is not None
        )
        site.current_iteration = delisted.listed_iteration
        assert client.get(
            f"http://{site.host}/offer/{delisted.listing_id}"
        ).ok
        site.current_iteration = delisted.delisted_iteration
        assert client.get(
            f"http://{site.host}/offer/{delisted.listing_id}"
        ).status == 404
        site.current_iteration = 0

    def test_active_listing_count_changes_with_iteration(self, deployed):
        _world, sites, _client = deployed
        site = sites["FameSwap"]
        site.current_iteration = 0
        at0 = len(site.active_listings())
        site.current_iteration = 2
        at2 = len(site.active_listings())
        assert at0 != at2 or at0 > 0
        site.current_iteration = 0


class TestRenderMemo:
    """Offer and seller pages are rendered once per site, and served
    only when the site would serve a freshly rendered one."""

    def test_memoized_offer_pages_match_fresh_renders(self, deployed):
        world, sites, client = deployed
        for iteration in range(world.iterations):
            fresh_net = Internet()
            for name, spec in MARKETPLACES.items():
                fresh_site = PublicMarketplaceSite(spec, world, clock=fresh_net.clock)
                fresh_site.current_iteration = iteration
                fresh_net.register(fresh_site)
                sites[name].current_iteration = iteration
            fresh_client = HttpClient(fresh_net)
            for name, spec in MARKETPLACES.items():
                for listing in world.listings_for_market(name):
                    url = f"http://{spec.host}/offer/{listing.listing_id}"
                    memoized, fresh = client.get(url), fresh_client.get(url)
                    assert memoized.status == fresh.status
                    assert memoized.body == fresh.body
        for site in sites.values():
            site.current_iteration = 0

    def test_memoized_offer_404s_once_delisted(self, deployed):
        world, sites, client = deployed
        site = sites["Z2U"]
        delisted = next(
            l for l in world.listings_for_market("Z2U")
            if l.delisted_iteration is not None
        )
        url = f"http://{site.host}/offer/{delisted.listing_id}"
        site.current_iteration = delisted.listed_iteration
        first = client.get(url)
        assert first.ok and client.get(url).body == first.body
        site.current_iteration = delisted.delisted_iteration
        assert client.get(url).status == 404
        site.current_iteration = 0

    def test_hidden_market_seller_pages_stay_404(self, deployed):
        # Hidden markets have no sellers in the world, so hide the
        # sellers of a public one: each must 404, also when asked twice.
        world, _sites, _client = deployed
        spec = dataclasses.replace(MARKETPLACES["Accsmarket"],
                                   sellers_public=False)
        net = Internet()
        net.register(PublicMarketplaceSite(spec, world, clock=net.clock))
        client = HttpClient(net)
        sellers = [s for s in world.sellers.values()
                   if s.marketplace == spec.name]
        assert sellers
        for seller in sellers:
            for _ in range(2):
                assert client.get(
                    f"http://{spec.host}/seller/{seller.seller_id}").status == 404
