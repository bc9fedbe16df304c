"""Tests for the measurement dataset records and persistence."""

import pytest

from repro.core.dataset import (
    ListingRecord,
    MeasurementDataset,
    PostRecord,
    ProfileRecord,
    SellerRecord,
    UndergroundRecord,
    record_from_dict,
)
from repro.store import load_dataset, save_dataset


def sample_dataset():
    ds = MeasurementDataset()
    ds.listings = [
        ListingRecord(offer_url="http://m.example/offer/1", marketplace="M1",
                      platform="X", price_usd=17.0,
                      profile_url="http://x.example/h1"),
        ListingRecord(offer_url="http://m.example/offer/2", marketplace="M2",
                      platform="Instagram", price_usd=298.0),
    ]
    ds.sellers = [SellerRecord(seller_url="http://m.example/seller/1",
                               marketplace="M1", name="S", country="Turkey")]
    ds.profiles = [ProfileRecord(profile_url="http://x.example/h1", platform="X",
                                 handle="h1", followers=2752, status="active")]
    ds.posts = [PostRecord(post_id="p1", platform="X", handle="h1",
                           text="hello world", likes=3)]
    ds.underground = [UndergroundRecord(url="http://n.onion/thread/1",
                                        market="Nexus", title="t", body="b",
                                        author="a", platform="TikTok")]
    return ds


class TestViews:
    def test_by_marketplace(self):
        grouped = sample_dataset().listings_by_marketplace()
        assert set(grouped) == {"M1", "M2"}
        assert len(grouped["M1"]) == 1

    def test_by_platform(self):
        ds = sample_dataset()
        assert set(ds.profiles_by_platform()) == {"X"}

    def test_visible_listings(self):
        visible = sample_dataset().visible_listings()
        assert len(visible) == 1
        assert visible[0].has_visible_profile

    def test_summary(self):
        assert sample_dataset().summary() == {
            "sellers": 1, "listings": 2, "profiles": 1, "posts": 1, "underground": 1,
        }


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        ds = sample_dataset()
        save_dataset(ds, str(tmp_path / "run1"))
        loaded = load_dataset(str(tmp_path / "run1"))
        assert loaded.summary() == ds.summary()
        assert loaded.listings[0] == ds.listings[0]
        assert loaded.profiles[0] == ds.profiles[0]
        assert loaded.underground[0] == ds.underground[0]

    def test_save_is_atomic_no_temp_leftovers(self, tmp_path):
        directory = tmp_path / "run_atomic"
        save_dataset(sample_dataset(), str(directory))
        leftovers = [p.name for p in directory.rglob("*") if ".tmp." in p.name]
        assert leftovers == []

    def test_full_study_roundtrip(self, tmp_path, dataset):
        save_dataset(dataset, str(tmp_path / "study"))
        loaded = load_dataset(str(tmp_path / "study"))
        assert loaded.summary() == dataset.summary()
        original_prices = sorted(
            l.price_usd for l in dataset.listings if l.price_usd is not None
        )
        loaded_prices = sorted(
            l.price_usd for l in loaded.listings if l.price_usd is not None
        )
        assert original_prices == loaded_prices


class TestRecordFromDict:
    def test_drops_unknown_keys(self):
        record = record_from_dict(
            PostRecord,
            {"post_id": "p", "platform": "x", "handle": "h", "text": "t",
             "future_field": 1},
        )
        assert record.post_id == "p"

    def test_rejects_non_dict(self):
        with pytest.raises(TypeError):
            record_from_dict(PostRecord, [1, 2])

    def test_rejects_missing_required(self):
        with pytest.raises(TypeError):
            record_from_dict(PostRecord, {"post_id": "p"})
