"""Tests for the Section-7 network analysis and Section-8 efficacy."""

import pytest

from repro.analysis.efficacy import EfficacyAnalysis, TREND_TOKENS
from repro.analysis.network import CLUSTER_ATTRIBUTES, NetworkAnalysis
from repro.core.dataset import MeasurementDataset, ProfileRecord
from repro.synthetic import calibration as cal


@pytest.fixture(scope="module")
def network(dataset):
    return NetworkAnalysis().run(dataset)


@pytest.fixture(scope="module")
def efficacy(dataset):
    return EfficacyAnalysis().run(dataset)


class TestNetworkAgainstGroundTruth:
    def test_minority_clustered(self, network):
        assert 0.0 < network.overall_fraction < 0.15  # paper: 4.7%

    def test_min_cluster_size_is_two(self, network):
        for stats in network.per_platform.values():
            if stats.clusters:
                assert stats.min_size >= 2

    def test_median_cluster_size_small(self, network):
        for stats in network.per_platform.values():
            if stats.clusters:
                assert stats.median_size <= 6  # paper: median 2

    def test_recovers_ground_truth_clusters(self, network, world, dataset):
        # Every ground-truth cluster whose members were all collected and
        # active must be found (they share an exact attribute value).
        active_handles = {
            p.handle for p in dataset.profiles if p.is_active
        }
        truth_clusters = {}
        for account in world.accounts.values():
            if account.cluster_id:
                truth_clusters.setdefault(account.cluster_id, []).append(account)
        found_members = {
            member.handle for cluster in network.clusters for member in cluster.members
        }
        for cluster_id, members in truth_clusters.items():
            alive = [m for m in members if m.handle in active_handles]
            if len(alive) >= 2:
                for member in alive:
                    assert member.handle in found_members, (cluster_id, member.handle)

    def test_precision_against_ground_truth(self, network, world):
        by_handle = {a.handle: a for a in world.accounts.values()}
        spurious = 0
        total = 0
        for cluster in network.clusters:
            for member in cluster.members:
                total += 1
                if by_handle[member.handle].cluster_id is None:
                    spurious += 1
        assert total > 0
        assert spurious / total < 0.25

    def test_exemplars_returned(self, network):
        exemplars = network.exemplars(3)
        assert exemplars
        assert exemplars[0].size == max(c.size for c in network.clusters)

    def test_attributes_match_paper_table7(self):
        assert CLUSTER_ATTRIBUTES["YouTube"] == ("name",)
        assert CLUSTER_ATTRIBUTES["Facebook"] == ("email", "phone", "website")
        assert CLUSTER_ATTRIBUTES["X"] == ("name", "description")


class TestNetworkMechanics:
    def _dataset(self, profiles):
        ds = MeasurementDataset()
        ds.profiles = profiles
        return ds

    def test_shared_email_clusters(self):
        profiles = [
            ProfileRecord(profile_url=f"u{i}", platform="Facebook", handle=f"h{i}",
                          email="shared@x.example")
            for i in range(3)
        ] + [
            ProfileRecord(profile_url="u9", platform="Facebook", handle="h9",
                          email="own@x.example")
        ]
        report = NetworkAnalysis().run(self._dataset(profiles))
        stats = report.per_platform["Facebook"]
        assert stats.clusters == 1
        assert stats.cluster_accounts == 3
        assert stats.singletons == 1

    def test_multi_attribute_union(self):
        # a-b share email; b-c share phone: one 3-account cluster.
        profiles = [
            ProfileRecord(profile_url="a", platform="Facebook", handle="a",
                          email="e1", phone=None),
            ProfileRecord(profile_url="b", platform="Facebook", handle="b",
                          email="e1", phone="p1"),
            ProfileRecord(profile_url="c", platform="Facebook", handle="c",
                          email=None, phone="p1"),
        ]
        report = NetworkAnalysis().run(self._dataset(profiles))
        assert report.per_platform["Facebook"].clusters == 1
        assert report.per_platform["Facebook"].cluster_accounts == 3

    def test_inactive_profiles_excluded(self):
        profiles = [
            ProfileRecord(profile_url=f"u{i}", platform="TikTok", handle=f"h{i}",
                          description="same bio", status="not_found")
            for i in range(3)
        ]
        report = NetworkAnalysis().run(self._dataset(profiles))
        assert report.total_clusters == 0


class TestEfficacy:
    def test_per_platform_rates_match_table8(self, efficacy):
        for platform, expected in cal.BLOCKING_EFFICACY.items():
            measured = efficacy.per_platform[platform].efficacy_percent
            assert abs(measured - expected * 100) < 8.0, (platform, measured)

    def test_overall_rate_near_paper(self, efficacy):
        assert abs(efficacy.overall_percent - cal.OVERALL_EFFICACY * 100) < 4.0

    def test_platform_ordering(self, efficacy):
        rates = {p: e.efficacy_percent for p, e in efficacy.per_platform.items()}
        assert efficacy.best_platform() in ("TikTok", "Instagram")
        assert efficacy.worst_platform() in ("YouTube", "Facebook")
        assert rates["TikTok"] > rates["X"] > rates["YouTube"]

    def test_forbidden_plus_not_found_is_inactive(self, efficacy):
        for stats in efficacy.per_platform.values():
            assert stats.forbidden + stats.not_found == stats.inactive_accounts

    def test_trend_tokens_overrepresented_in_blocked(self, efficacy):
        higher = sum(
            1 for token in TREND_TOKENS
            if efficacy.trend_token_shares[token][0]
            > efficacy.trend_token_shares[token][1]
        )
        assert higher >= 4  # the Section-8 signal

    def test_counts_sum(self, efficacy, dataset):
        assert efficacy.total_visible == len(dataset.profiles)
        assert efficacy.total_inactive == sum(
            1 for p in dataset.profiles if not p.is_active
        )
