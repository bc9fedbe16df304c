"""Tests for crawl checkpointing and resume."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crawler.checkpoints import CrawlCheckpoint
from repro.crawler.crawler import IterationCrawl
from repro.core.dataset import ListingRecord, SellerRecord
from repro.marketplaces.public import PublicMarketplaceSite
from repro.marketplaces.registry import MARKETPLACES
from repro.obs.telemetry import Telemetry
from repro.synthetic import WorldBuilder, WorldConfig
from repro.web.client import HttpClient
from repro.web.server import Internet


class TestCheckpointPersistence:
    def test_roundtrip(self, tmp_path):
        record = ListingRecord(
            offer_url="http://m.example/offer/1", marketplace="M",
            platform="X", price_usd=17.0, first_seen_iteration=1,
            last_seen_iteration=2,
        )
        checkpoint = CrawlCheckpoint(
            completed_iterations=3,
            active_per_iteration=[5, 6, 4],
            cumulative_per_iteration=[5, 7, 8],
            tracker={"key": record},
        )
        path = str(tmp_path / "crawl.json")
        checkpoint.save(path)
        loaded = CrawlCheckpoint.load(path)
        assert loaded.completed_iterations == 3
        assert loaded.active_per_iteration == [5, 6, 4]
        assert loaded.tracker["key"] == record

    def test_load_or_empty(self, tmp_path):
        checkpoint = CrawlCheckpoint.load_or_empty(str(tmp_path / "missing.json"))
        assert checkpoint.completed_iterations == 0
        assert checkpoint.tracker == {}

    def test_no_torn_writes(self, tmp_path):
        path = str(tmp_path / "crawl.json")
        CrawlCheckpoint(completed_iterations=1).save(path)
        assert not os.path.exists(path + ".tmp")


class TestResume:
    @pytest.fixture()
    def deployment(self):
        world = WorldBuilder(WorldConfig(seed=31, scale=0.02, iterations=4)).build()
        net = Internet()
        sites = {}
        for name in ("Accsmarket", "InstaSale"):
            site = PublicMarketplaceSite(MARKETPLACES[name], world, clock=net.clock)
            net.register(site)
            sites[name] = site
        client = HttpClient(net)
        seed_urls = {n: f"http://{s.host}/listings" for n, s in sites.items()}

        def set_iteration(i):
            for site in sites.values():
                site.current_iteration = i

        return world, client, seed_urls, set_iteration

    def test_resumed_crawl_matches_uninterrupted(self, tmp_path, deployment):
        world, client, seed_urls, set_iteration = deployment
        # Reference: one uninterrupted 4-iteration crawl.
        reference = IterationCrawl(
            client=client, seed_urls=seed_urls,
            set_iteration=set_iteration, iterations=4,
        ).run()
        # Interrupted: two iterations, "crash", then resume to four.
        path = str(tmp_path / "checkpoint.json")
        IterationCrawl(
            client=client, seed_urls=seed_urls, set_iteration=set_iteration,
            iterations=2, checkpoint_path=path,
        ).run()
        resumed_crawl = IterationCrawl(
            client=client, seed_urls=seed_urls, set_iteration=set_iteration,
            iterations=4, checkpoint_path=path,
        )
        resumed = resumed_crawl.run()
        assert len(resumed.listings) == len(reference.listings)
        assert sorted(l.offer_url for l in resumed.listings) == \
            sorted(l.offer_url for l in reference.listings)
        assert len(resumed_crawl.cumulative_per_iteration) == 4
        # first-seen bookkeeping survives the restart.
        ref_first = {l.offer_url: l.first_seen_iteration for l in reference.listings}
        for record in resumed.listings:
            assert record.first_seen_iteration == ref_first[record.offer_url]

    def test_completed_checkpoint_skips_work(self, tmp_path, deployment):
        _world, client, seed_urls, set_iteration = deployment
        path = str(tmp_path / "done.json")
        IterationCrawl(
            client=client, seed_urls=seed_urls, set_iteration=set_iteration,
            iterations=2, checkpoint_path=path,
        ).run()
        requests_before = client.stats.requests_sent
        rerun = IterationCrawl(
            client=client, seed_urls=seed_urls, set_iteration=set_iteration,
            iterations=2, checkpoint_path=path,
        )
        dataset = rerun.run()
        assert client.stats.requests_sent == requests_before  # nothing refetched
        assert dataset.listings  # state came from the checkpoint


class TestCorruptTolerance:
    def test_corrupt_json_quarantined_and_fresh_start(self, tmp_path):
        path = str(tmp_path / "crawl.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"completed_iterations": 2, "tracker": {')  # torn
        telemetry = Telemetry()
        checkpoint = CrawlCheckpoint.load_or_empty(path, telemetry=telemetry)
        assert checkpoint.completed_iterations == 0
        assert checkpoint.tracker == {}
        assert not os.path.exists(path)  # moved aside, not left to re-trip
        assert os.path.exists(path + ".corrupt")
        events = [e for e in telemetry.events.events
                  if e.kind == "checkpoint.corrupt"]
        assert len(events) == 1
        assert events[0].level == "error"
        assert events[0].fields["quarantine"] == path + ".corrupt"

    def test_valid_json_wrong_shape_quarantined(self, tmp_path):
        path = str(tmp_path / "crawl.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"something": "else"}')  # parses, wrong schema
        checkpoint = CrawlCheckpoint.load_or_empty(path)
        assert checkpoint.completed_iterations == 0
        assert os.path.exists(path + ".corrupt")

    def test_unknown_record_field_quarantined(self, tmp_path):
        # A checkpoint from an incompatible (newer) schema version.
        path = str(tmp_path / "crawl.json")
        good = CrawlCheckpoint(completed_iterations=1)
        good.save(path)
        import json as _json
        with open(path, encoding="utf-8") as handle:
            payload = _json.load(handle)
        payload["tracker"] = {"k": {"offer_url": "u", "marketplace": "m",
                                    "not_a_field": 1}}
        with open(path, "w", encoding="utf-8") as handle:
            _json.dump(payload, handle)
        checkpoint = CrawlCheckpoint.load_or_empty(path)
        assert checkpoint.tracker == {}
        assert os.path.exists(path + ".corrupt")

    def test_healthy_checkpoint_still_loads(self, tmp_path):
        path = str(tmp_path / "crawl.json")
        CrawlCheckpoint(completed_iterations=3, sim_seconds=120.5).save(path)
        loaded = CrawlCheckpoint.load_or_empty(path, telemetry=Telemetry())
        assert loaded.completed_iterations == 3
        assert loaded.sim_seconds == 120.5
        assert not os.path.exists(path + ".corrupt")


# -- property: save -> load is the identity ---------------------------------

_opt_text = st.none() | st.text(max_size=20)

_listings = st.builds(
    ListingRecord,
    offer_url=st.text(min_size=1, max_size=40),
    marketplace=st.sampled_from(["Accsmarket", "InstaSale", "MidMan"]),
    title=st.text(max_size=30),
    platform=_opt_text,
    price_usd=st.none() | st.floats(0, 1e6, allow_nan=False),
    followers_claimed=st.none() | st.integers(0, 10**9),
    seller_url=_opt_text,
    profile_url=_opt_text,
    verified_claim=st.booleans(),
    # Delisted listings: last_seen may lag far behind the crawl front.
    first_seen_iteration=st.integers(0, 3),
    last_seen_iteration=st.integers(0, 10),
    provenance=st.sampled_from(["complete", "partial:truncated_html"]),
)

_sellers = st.builds(
    SellerRecord,
    seller_url=st.text(min_size=1, max_size=40),
    marketplace=st.sampled_from(["Accsmarket", "InstaSale"]),
    name=_opt_text,
    country=_opt_text,
    rating=st.none() | st.floats(0, 5, allow_nan=False),
    joined=_opt_text,
)


class TestCheckpointRoundtripProperty:
    @settings(max_examples=50, deadline=None)
    @given(
        tracker=st.dictionaries(st.text(min_size=1, max_size=30), _listings,
                                max_size=8),
        # Sellers are saved independently of the tracker, so sellers
        # whose every listing has delisted (orphans) must survive too.
        sellers=st.dictionaries(st.text(min_size=1, max_size=30), _sellers,
                                max_size=8),
        completed=st.integers(0, 6),
        sim_seconds=st.floats(0, 1e7, allow_nan=False),
        series=st.lists(st.integers(0, 1000), max_size=6),
    )
    def test_save_load_identity(self, tracker, sellers, completed,
                                sim_seconds, series):
        checkpoint = CrawlCheckpoint(
            completed_iterations=completed,
            active_per_iteration=series,
            cumulative_per_iteration=list(reversed(series)),
            sim_seconds=sim_seconds,
            tracker=tracker,
            sellers=sellers,
        )
        # tmp_path is function-scoped and hypothesis reuses the test
        # function across examples, so manage the directory ourselves.
        import tempfile
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "prop.json")
            checkpoint.save(path)
            loaded = CrawlCheckpoint.load(path)
        assert loaded == checkpoint
