"""Tests for the profile collector and the underground manual collector."""

import pytest

from repro.core.dataset import ListingRecord
from repro.crawler.profile_collector import (
    ProfileCollector,
    handle_of_url,
    platform_of_url,
)
from repro.crawler.underground_collector import (
    MAX_POSTINGS_PER_PLATFORM,
    UndergroundCollector,
)
from repro.marketplaces.underground import UndergroundForumSite
from repro.obs.telemetry import Telemetry
from repro.platforms.base import PLATFORM_HOSTS, profile_url
from repro.platforms.deploy import deploy_platforms, enable_moderation
from repro.synthetic import WorldBuilder, WorldConfig
from repro.synthetic.model import AccountFate, Platform
from repro.synthetic.names import NameForge
from repro.synthetic.underground import UndergroundGenerator
from repro.util.rng import RngTree
from repro.web.captcha import HumanSolver
from repro.web.client import HttpClient
from repro.web.server import Internet


@pytest.fixture(scope="module")
def platform_net():
    world = WorldBuilder(WorldConfig(seed=61, scale=0.02)).build()
    net = Internet()
    sites = deploy_platforms(net, world, enforce_moderation=False)
    client = HttpClient(net)
    return world, net, sites, client


class TestUrlHelpers:
    def test_platform_of_url(self):
        assert platform_of_url("http://x.example/somehandle") is Platform.X
        assert platform_of_url("http://unknown.example/h") is None

    def test_handle_of_url(self):
        assert handle_of_url("http://tiktok.example/cool.handle") == "cool.handle"


class TestProfileCollector:
    def test_collects_metadata_and_posts(self, platform_net):
        world, _net, _sites, client = platform_net
        account = next(
            a for a in world.accounts.values() if len(a.posts) >= 3
        )
        collector = ProfileCollector(client)
        profile, posts = collector.collect_profile(
            profile_url(account.platform, account.handle)
        )
        assert profile.status == "active"
        assert profile.followers == account.followers
        assert profile.created == account.created.isoformat()
        assert len(posts) == len(account.posts)
        assert {p.post_id for p in posts} == {p.post_id for p in account.posts}

    def test_timeline_pagination_consistency(self, platform_net):
        world, _net, _sites, client = platform_net
        account = max(world.accounts.values(), key=lambda a: len(a.posts))
        collector = ProfileCollector(client, timeline_page_size=7)
        _profile, posts = collector.collect_profile(
            profile_url(account.platform, account.handle)
        )
        assert len(posts) == len(account.posts)

    def test_deduplicates_profile_urls(self, platform_net):
        world, _net, _sites, client = platform_net
        account = next(iter(world.accounts.values()))
        url = profile_url(account.platform, account.handle)
        listings = [
            ListingRecord(offer_url=f"http://m.example/{i}", marketplace="M",
                          profile_url=url)
            for i in range(3)
        ]
        collector = ProfileCollector(client)
        profiles, _posts = collector.collect(listings)
        assert len(profiles) == 1

    def test_listings_without_profiles_skipped(self, platform_net):
        _world, _net, _sites, client = platform_net
        listings = [ListingRecord(offer_url="http://m.example/1", marketplace="M")]
        profiles, posts = ProfileCollector(client).collect(listings)
        assert profiles == [] and posts == []

    def test_status_sweep_flips_banned(self, platform_net):
        world, _net, sites, client = platform_net
        banned = next(
            a for a in world.accounts.values() if a.fate is AccountFate.BANNED
        )
        collector = ProfileCollector(client)
        profile, _posts = collector.collect_profile(
            profile_url(banned.platform, banned.handle)
        )
        assert profile.status == "active"  # pre-enforcement
        enable_moderation(sites)
        try:
            flipped = collector.sweep_status([profile])
            assert flipped == 1
            assert profile.status in ("forbidden", "not_found")
        finally:
            for site in sites.values():
                site.enforce_moderation = False


class TestUndergroundCollector:
    @pytest.fixture()
    def forum_net(self):
        rng = RngTree(41)
        postings = UndergroundGenerator(
            rng.child("gen"), NameForge(rng.child("names"))
        ).build()
        nexus = [p for p in postings if p.market == "Nexus"]
        net = Internet()
        site = UndergroundForumSite("Nexus", nexus, rng.child("site"), clock=net.clock)
        net.register(site)
        client = HttpClient(
            net, client_id="m", via_tor=True
        )
        return site, client, nexus

    def test_collects_within_protocol_budget(self, forum_net):
        site, client, nexus = forum_net
        collector = UndergroundCollector(
            client=client, solver=HumanSolver(RngTree(4).child("s"), accuracy=1.0)
        )
        records = collector.collect_market("Nexus", site.host)
        assert records
        per_platform = {}
        for record in records:
            per_platform[record.platform] = per_platform.get(record.platform, 0) + 1
        assert all(v <= MAX_POSTINGS_PER_PLATFORM for v in per_platform.values())
        # Nexus has 23 TikTok posts but the page budget is 5 pages x 5.
        assert per_platform.get("TikTok", 0) <= 25

    def test_recorded_fields_match_ground_truth(self, forum_net):
        site, client, nexus = forum_net
        collector = UndergroundCollector(
            client=client, solver=HumanSolver(RngTree(5).child("s"), accuracy=1.0)
        )
        records = collector.collect_market("Nexus", site.host)
        truth = {p.posting_id: p for p in nexus}
        assert records
        for record in records:
            posting_id = record.url.rsplit("/", 1)[-1]
            match = truth[posting_id]
            assert record.body == match.body
            assert record.author == match.author
            assert record.quantity == match.quantity
            assert record.replies == match.replies

    def test_hopeless_captcha_gives_up(self, forum_net):
        site, client, _nexus = forum_net
        telemetry = Telemetry()
        collector = UndergroundCollector(
            client=client,
            solver=HumanSolver(RngTree(6).child("s"), accuracy=0.01),
            telemetry=telemetry,
        )
        records = collector.collect_market("Nexus", site.host)
        assert records == []
        failed = [e for e in telemetry.events.events
                  if e.kind == "registration_failed"]
        assert len(failed) == 1
        assert failed[0].fields == {"market": "Nexus", "host": site.host}

    def test_human_pace_charged_to_clock(self, forum_net):
        site, client, _nexus = forum_net
        before = client.clock.now()
        collector = UndergroundCollector(
            client=client, solver=HumanSolver(RngTree(7).child("s"), accuracy=1.0)
        )
        collector.collect_market("Nexus", site.host)
        assert client.clock.now() - before >= 25.0  # at least one CAPTCHA solve


class TestUndergroundSearchProtocol:
    @pytest.fixture()
    def forum_net(self):
        rng = RngTree(43)
        postings = UndergroundGenerator(
            rng.child("gen"), NameForge(rng.child("names"))
        ).build()
        nexus = [p for p in postings if p.market == "Nexus"]
        net = Internet()
        site = UndergroundForumSite("Nexus", nexus, rng.child("site"), clock=net.clock)
        net.register(site)
        client = HttpClient(
            net, client_id="m", via_tor=True
        )
        return site, client, nexus

    def test_search_collection_finds_postings(self, forum_net):
        site, client, nexus = forum_net
        collector = UndergroundCollector(
            client=client, solver=HumanSolver(RngTree(8).child("s"), accuracy=1.0)
        )
        records = collector.collect_market_via_search("Nexus", site.host)
        assert records
        # No duplicate postings despite overlapping keyword queries.
        urls = [r.url for r in records]
        assert len(urls) == len(set(urls))

    def test_search_and_browse_agree(self, forum_net):
        site, client, nexus = forum_net
        solver = HumanSolver(RngTree(9).child("s"), accuracy=1.0)
        browse = UndergroundCollector(client=client, solver=solver)
        browsed = browse.collect_market("Nexus", site.host)
        search = UndergroundCollector(client=client, solver=solver)
        searched = search.collect_market_via_search("Nexus", site.host)
        browsed_urls = {r.url for r in browsed}
        searched_urls = {r.url for r in searched}
        # Every posting body mentions accounts/profiles, so search reaches
        # at least the postings that fit in its page budget; overlap is
        # substantial.
        assert len(browsed_urls & searched_urls) >= min(len(browsed_urls),
                                                        len(searched_urls)) * 0.5

    def test_search_respects_platform_budget(self, forum_net):
        site, client, _nexus = forum_net
        collector = UndergroundCollector(
            client=client, solver=HumanSolver(RngTree(10).child("s"), accuracy=1.0)
        )
        records = collector.collect_market_via_search("Nexus", site.host)
        from collections import Counter
        counts = Counter(r.platform for r in records)
        assert all(v <= MAX_POSTINGS_PER_PLATFORM for v in counts.values())
