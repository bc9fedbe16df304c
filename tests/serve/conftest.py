"""Shared fixtures for the serving-layer tests.

The catalog tests need saved run directories, not live studies, so the
fixtures write small hand-built datasets as segmented stores plus the
side artifacts the catalog ingests (``study_meta.json``,
``scorecard.json``).
"""

from __future__ import annotations

import os

import pytest

from repro.core.dataset import (
    ListingRecord,
    MeasurementDataset,
    ProfileRecord,
    SellerRecord,
)
from repro.serve import build_catalog
from repro.store import save_dataset
from repro.util.fileio import atomic_write_json


def small_dataset(price_shift: float = 0.0) -> MeasurementDataset:
    """A tiny two-marketplace dataset with deterministic contents."""
    listings = []
    for marketplace in ("alphabay", "bazaar"):
        for index in range(6):
            listings.append(ListingRecord(
                offer_url=f"http://{marketplace}/offer/{index}",
                marketplace=marketplace,
                title=f"{marketplace} account {index}",
                platform="instagram" if index % 2 else "tiktok",
                price_usd=10.0 * (index + 1) + price_shift,
                category="social" if index % 2 else "gaming",
                followers_claimed=1000 * index,
                seller_url=f"http://{marketplace}/seller/{index % 3}",
                seller_name=f"s{index % 3}",
                verified_claim=bool(index % 2),
                first_seen_iteration=0,
                last_seen_iteration=index % 3,
            ))
    sellers = [
        SellerRecord(seller_url=f"http://{marketplace}/seller/{index}",
                     marketplace=marketplace, name=f"s{index}",
                     country="US", rating=4.0 + index / 10)
        for marketplace in ("alphabay", "bazaar")
        for index in range(3)
    ]
    profiles = [
        ProfileRecord(profile_url=f"http://x/p{index}", platform="x",
                      handle=f"h{index}")
        for index in range(2)
    ]
    return MeasurementDataset(listings=listings, sellers=sellers,
                              profiles=profiles)


def scorecard_doc(shift: float = 0.0) -> dict:
    return {
        "schema": "repro.scorecard/v1",
        "passed": True,
        "entries": [
            {"name": "price_median", "kind": "band",
             "value": 40.0 + shift, "low": 10.0, "high": 100.0,
             "passed": True, "detail": ""},
            {"name": "coverage", "kind": "band", "value": 0.97,
             "low": 0.9, "high": 1.0, "passed": True, "detail": ""},
        ],
    }


def write_run(path: str, dataset: MeasurementDataset, seed: int = 7,
              scorecard: dict = None) -> str:
    """A run dir, laid out as ``repro run --out`` leaves it."""
    save_dataset(dataset, path)
    atomic_write_json(os.path.join(path, "study_meta.json"),
                      {"seed": seed, "scale": 0.01, "iterations": 3})
    if scorecard is not None:
        atomic_write_json(os.path.join(path, "scorecard.json"), scorecard)
    return path


@pytest.fixture()
def run_dir(tmp_path):
    return write_run(str(tmp_path / "run0"), small_dataset(),
                     scorecard=scorecard_doc())


@pytest.fixture()
def catalog_dir(tmp_path, run_dir):
    second = write_run(str(tmp_path / "run1"), small_dataset(5.0),
                       scorecard=scorecard_doc(2.5))
    out = str(tmp_path / "catalog")
    build_catalog([run_dir, second], out)
    return out
