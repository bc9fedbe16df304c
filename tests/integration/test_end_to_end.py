"""End-to-end validation: the pipeline's measurements vs the world's truth.

These are the tests that justify trusting the benchmark harness: every
number the analyses report is compared against the ground truth the
synthetic world carries — the comparison the paper's authors could not
make, and the reason the reproduction uses a calibrated simulator.
"""

import pytest

from repro.analysis import (
    EfficacyAnalysis,
    MarketplaceAnatomy,
    NetworkAnalysis,
    ScamPostAnalysis,
)
from repro.synthetic.model import AccountFate


class TestCrawlCompleteness:
    def test_every_listing_crawled_exactly_once(self, study_result):
        world = study_result.world
        crawled_ids = {
            l.offer_url.rsplit("/", 1)[-1] for l in study_result.dataset.listings
        }
        assert crawled_ids == set(world.listings)

    def test_extracted_prices_match_truth(self, study_result):
        world = study_result.world
        truth = world.listings
        mismatches = 0
        for record in study_result.dataset.listings:
            listing_id = record.offer_url.rsplit("/", 1)[-1]
            if abs(record.price_usd - truth[listing_id].price.as_dollars) > 1.0:
                mismatches += 1
        assert mismatches == 0

    def test_extracted_platforms_match_truth(self, study_result):
        world = study_result.world
        for record in study_result.dataset.listings:
            listing_id = record.offer_url.rsplit("/", 1)[-1]
            assert record.platform == world.listings[listing_id].platform.value

    def test_first_seen_matches_listed_iteration(self, study_result):
        world = study_result.world
        for record in study_result.dataset.listings:
            listing_id = record.offer_url.rsplit("/", 1)[-1]
            assert record.first_seen_iteration == world.listings[listing_id].listed_iteration


class TestProfileCollectionCompleteness:
    def test_every_visible_account_collected(self, study_result):
        world = study_result.world
        collected = {p.handle for p in study_result.dataset.profiles}
        assert collected == {a.handle for a in world.accounts.values()}

    def test_collected_post_volume_matches_truth(self, study_result):
        world = study_result.world
        truth_posts = sum(len(a.posts) for a in world.accounts.values())
        assert len(study_result.dataset.posts) == truth_posts

    def test_followers_faithful(self, study_result):
        world = study_result.world
        by_handle = {a.handle: a for a in world.accounts.values()}
        for profile in study_result.dataset.profiles:
            if profile.is_active:
                assert profile.followers == by_handle[profile.handle].followers


class TestStatusSweepFaithful:
    def test_statuses_match_fates(self, study_result):
        world = study_result.world
        by_handle = {a.handle: a for a in world.accounts.values()}
        for profile in study_result.dataset.profiles:
            fate = by_handle[profile.handle].fate
            if fate is AccountFate.ACTIVE:
                assert profile.status == "active"
            elif fate is AccountFate.BANNED:
                assert profile.status in ("forbidden", "not_found")
            else:
                assert profile.status == "not_found"

    def test_x_bans_are_distinguishable(self, study_result):
        world = study_result.world
        x_banned = [
            a.handle for a in world.accounts.values()
            if a.platform.value == "X" and a.fate is AccountFate.BANNED
        ]
        statuses = {
            p.handle: p.status for p in study_result.dataset.profiles
            if p.platform == "X"
        }
        assert x_banned
        assert all(statuses[h] == "forbidden" for h in x_banned)

    def test_efficacy_measures_moderation_exactly(self, study_result):
        world = study_result.world
        report = EfficacyAnalysis().run(study_result.dataset)
        truth_inactive = sum(
            1 for a in world.accounts.values() if a.fate is not AccountFate.ACTIVE
        )
        assert report.total_inactive == truth_inactive


class TestAnalysesAgreeWithTruth:
    def test_anatomy_counts_are_exact(self, study_result):
        world = study_result.world
        anatomy = MarketplaceAnatomy().run(study_result.dataset)
        assert anatomy.listings_total == len(world.listings)
        truth_verified = sum(1 for l in world.listings.values() if l.verified_claim)
        assert anatomy.verified_count == truth_verified
        truth_monetized = sum(
            1 for l in world.listings.values() if l.monetization is not None
        )
        assert anatomy.monetized.count == truth_monetized

    def test_network_clusters_cover_truth(self, study_result):
        world = study_result.world
        report = NetworkAnalysis().run(study_result.dataset)
        active_handles = {
            p.handle for p in study_result.dataset.profiles if p.is_active
        }
        truth_pairs = set()
        clusters = {}
        for account in world.accounts.values():
            if account.cluster_id and account.handle in active_handles:
                clusters.setdefault(account.cluster_id, []).append(account.handle)
        for members in clusters.values():
            if len(members) >= 2:
                truth_pairs.update(
                    (a, b) for i, a in enumerate(members) for b in members[i + 1:]
                )
        found_pairs = set()
        for cluster in report.clusters:
            handles = [m.handle for m in cluster.members]
            found_pairs.update(
                (a, b) for i, a in enumerate(handles) for b in handles[i + 1:]
            )
            found_pairs.update(
                (b, a) for i, a in enumerate(handles) for b in handles[i + 1:]
            )
        missing = {p for p in truth_pairs if p not in found_pairs}
        assert not missing

    def test_scam_detection_end_to_end(self, study_result):
        world = study_result.world
        report = ScamPostAnalysis().run(
            study_result.dataset
        )
        truth_scammers = {
            (a.platform.value, a.handle)
            for a in world.accounts.values()
            if a.is_scammer
        }
        detected = report.scam_accounts
        precision = len(detected & truth_scammers) / len(detected)
        recall = len(detected & truth_scammers) / len(truth_scammers)
        assert precision > 0.95
        assert recall > 0.8
