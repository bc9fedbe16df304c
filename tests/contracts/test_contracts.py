"""Unit tests for the record-contract layer and quarantine store."""

import json
import math
import os

import pytest

from repro.contracts import (
    CONTRACTS,
    ContractViolationError,
    QUARANTINE_FILENAME,
    QuarantineStore,
    validate_dataset,
)
from repro.contracts.schema import (
    is_well_formed_iso_date,
    is_well_formed_url,
    strip_control_chars,
)
from repro.core.dataset import (
    ListingRecord,
    MeasurementDataset,
    PostRecord,
    ProfileRecord,
    SellerRecord,
    UndergroundRecord,
    add_provenance,
    provenance_flags,
)
from repro.obs.telemetry import Telemetry
from repro.store.segments import SOURCE_STORE_LOAD


def listing(**overrides):
    base = dict(offer_url="http://mk.example/offer/1", marketplace="mk")
    base.update(overrides)
    return ListingRecord(**base)


def small_dataset(*listings_):
    return MeasurementDataset(listings=list(listings_))


# -- helpers ---------------------------------------------------------------

def test_well_formed_url():
    assert is_well_formed_url("http://host.example/path")
    assert is_well_formed_url("https://host.example")
    assert not is_well_formed_url("ftp://host.example")
    assert not is_well_formed_url("not a url")
    assert not is_well_formed_url("http://")


def test_well_formed_iso_date():
    assert is_well_formed_iso_date("2024-02-01")
    assert not is_well_formed_iso_date("02/01/2024")
    assert not is_well_formed_iso_date("2024-13-40")


def test_strip_control_chars_keeps_whitespace():
    assert strip_control_chars("a\x00b\x1fc\td\ne") == "abc\td\ne"


# -- provenance trail ------------------------------------------------------

def test_add_provenance_builds_comma_trail():
    record = listing()
    assert provenance_flags(record) == []
    add_provenance(record, "partial:truncated_html")
    assert record.provenance == "partial:truncated_html"
    add_provenance(record, "contract:price_usd.non_finite")
    assert record.provenance == (
        "partial:truncated_html,contract:price_usd.non_finite"
    )
    assert provenance_flags(record) == [
        "partial:truncated_html", "contract:price_usd.non_finite",
    ]


def test_add_provenance_is_idempotent():
    record = listing()
    add_provenance(record, "partial:x")
    add_provenance(record, "partial:x")
    assert record.provenance == "partial:x"


def test_add_provenance_noop_without_field():
    post = PostRecord(post_id="p", platform="x", handle="h", text="t")
    add_provenance(post, "partial:x")  # must not raise or add attributes
    assert not hasattr(post, "provenance")


def test_old_single_value_provenance_reads_as_one_flag_trail():
    record = listing(provenance="partial:truncated_html")
    assert provenance_flags(record) == ["partial:truncated_html"]
    add_provenance(record, "contract:rule")
    assert provenance_flags(record) == [
        "partial:truncated_html", "contract:rule",
    ]


# -- repair disposition ----------------------------------------------------

def test_repair_clamps_negative_followers():
    record = listing(followers_claimed=-5)
    outcome = CONTRACTS["listings"].apply(record)
    assert record.followers_claimed == 0
    assert "followers_claimed.out_of_range" in outcome.repairs
    assert not outcome.degrades and not outcome.quarantined


def test_repair_coerces_numeric_string_price():
    record = listing(price_usd="149.5")
    outcome = CONTRACTS["listings"].apply(record)
    assert record.price_usd == 149.5
    assert "price_usd.coerced" in outcome.repairs


def test_repair_strips_control_chars_and_truncates():
    record = listing(title="ti\x00tle", description="x" * 20_000)
    outcome = CONTRACTS["listings"].apply(record)
    assert record.title == "title"
    assert len(record.description) == 10_000
    assert "title.control_chars" in outcome.repairs
    assert "description.truncated" in outcome.repairs


def test_repair_swaps_seen_iteration_order():
    record = listing(first_seen_iteration=4, last_seen_iteration=1)
    outcome = CONTRACTS["listings"].apply(record)
    assert (record.first_seen_iteration, record.last_seen_iteration) == (1, 4)
    assert "invariant.seen_order" in outcome.repairs


def test_repair_normalizes_unknown_profile_status():
    record = ProfileRecord(
        profile_url="http://p.example/u", platform="x", handle="h",
        status="weird",
    )
    CONTRACTS["profiles"].apply(record)
    assert record.status == "error"


def test_repairs_leave_provenance_untouched():
    record = listing(followers_claimed=-1)
    CONTRACTS["listings"].apply(record)
    assert record.provenance == "complete"


# -- degrade disposition ---------------------------------------------------

def test_degrade_nan_price_nulls_field_and_flags_provenance():
    record = listing(price_usd=float("nan"))
    outcome = CONTRACTS["listings"].apply(record)
    assert record.price_usd is None
    assert "price_usd.non_finite" in outcome.degrades
    assert "contract:price_usd.non_finite" in provenance_flags(record)


def test_degrade_negative_price_nulls_field():
    record = listing(price_usd=-10.0)
    CONTRACTS["listings"].apply(record)
    assert record.price_usd is None
    assert "contract:price_usd.out_of_range" in provenance_flags(record)


def test_degrade_inf_revenue():
    record = listing(monthly_revenue_usd=float("inf"))
    CONTRACTS["listings"].apply(record)
    assert record.monthly_revenue_usd is None


def test_degrade_malformed_optional_date():
    record = ProfileRecord(
        profile_url="http://p.example/u", platform="x", handle="h",
        created="yesterday",
    )
    CONTRACTS["profiles"].apply(record)
    assert record.created is None
    assert "contract:created.malformed_date" in provenance_flags(record)


def test_degrade_type_swapped_optional_field():
    record = listing(category=123)
    CONTRACTS["listings"].apply(record)
    assert record.category is None


# -- quarantine disposition ------------------------------------------------

def test_quarantine_missing_required_field():
    record = listing(offer_url=None)
    outcome = CONTRACTS["listings"].apply(record)
    assert outcome.quarantined
    assert outcome.quarantine_rule == "offer_url.missing"


def test_quarantine_malformed_required_url():
    record = listing(offer_url="garbage")
    outcome = CONTRACTS["listings"].apply(record)
    assert outcome.quarantined
    assert outcome.quarantine_rule == "offer_url.malformed_url"


def test_validate_dataset_removes_quarantined_records():
    ds = small_dataset(listing(), listing(offer_url="garbage"))
    store = QuarantineStore()
    report = validate_dataset(ds, store)
    assert len(ds.listings) == 1
    assert report.quarantined == 1
    assert report.checked["listings"] == 2
    assert report.kept["listings"] == 1
    assert 0.0 < report.coverage() < 1.0
    assert store.entries[0].rule == "offer_url.malformed_url"
    assert store.entries[0].record["offer_url"] == "garbage"


def test_validate_dataset_counts_metrics():
    telemetry = Telemetry()
    ds = small_dataset(
        listing(price_usd=float("nan")),
        listing(offer_url="garbage"),
        listing(followers_claimed=-2),
    )
    store = QuarantineStore(telemetry)
    validate_dataset(ds, store, telemetry)
    metrics = telemetry.metrics
    assert metrics.counter(
        "contracts_checked_total", labels=("record_type",)
    ).value(record_type="listings") == 3
    assert metrics.counter(
        "contracts_quarantined_total", labels=("record_type", "rule")
    ).value(record_type="listings", rule="offer_url.malformed_url") == 1
    assert metrics.counter(
        "contracts_degraded_total", labels=("record_type", "rule")
    ).value(record_type="listings", rule="price_usd.non_finite") == 1
    kinds = [e.kind for e in telemetry.events.events]
    assert "contract.quarantine" in kinds
    assert "contract.degrade" in kinds


def test_all_record_types_have_contracts():
    assert set(CONTRACTS) == {
        "sellers", "listings", "profiles", "posts", "underground",
    }
    # Sanity: a clean record of each type passes untouched.
    clean = {
        "sellers": SellerRecord(
            seller_url="http://mk.example/s/1", marketplace="mk",
            rating=4.5, joined="2023-01-05",
        ),
        "listings": listing(price_usd=100.0),
        "profiles": ProfileRecord(
            profile_url="http://p.example/u", platform="x", handle="h",
            created="2020-05-01", followers=10,
        ),
        "posts": PostRecord(
            post_id="p1", platform="x", handle="h", text="hello",
            date="2024-02-03",
        ),
        "underground": UndergroundRecord(
            url="http://ug.example/t/1", market="ug", title="t",
            body="b", author="a", date="2024-02-03",
        ),
    }
    for name, record in clean.items():
        outcome = CONTRACTS[name].apply(record)
        assert not outcome.repairs, (name, outcome.repairs)
        assert not outcome.degrades, (name, outcome.degrades)
        assert not outcome.quarantined


# -- strict mode -----------------------------------------------------------

def test_strict_store_raises_with_machine_readable_message():
    store = QuarantineStore(strict=True)
    with pytest.raises(ContractViolationError) as err:
        store.quarantine("listings", "offer_url.missing", "no url")
    assert "listings/offer_url.missing" in str(err.value)
    assert store.total == 0  # nothing appended on the strict path


def test_strict_validate_dataset_raises():
    ds = small_dataset(listing(offer_url=None))
    with pytest.raises(ContractViolationError):
        validate_dataset(ds, QuarantineStore(strict=True))


# -- store persistence -----------------------------------------------------

def test_store_round_trip(tmp_path):
    store = QuarantineStore()
    store.quarantine("listings", "offer_url.missing", "no url",
                     record={"marketplace": "mk"})
    store.quarantine("posts", "store_decode_error", "truncated",
                     raw='{"post_id": "p', source=SOURCE_STORE_LOAD)
    path = store.write_jsonl(str(tmp_path))
    assert os.path.basename(path) == QUARANTINE_FILENAME
    entries = QuarantineStore.load_jsonl(path)
    assert [e.rule for e in entries] == [
        "offer_url.missing", "store_decode_error",
    ]
    assert entries[0].record == {"marketplace": "mk"}
    assert entries[1].source == SOURCE_STORE_LOAD
    # machine-readable: every line parses and names a rule + reason
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            payload = json.loads(line)
            assert payload["rule"] and payload["reason"]


def test_empty_store_still_writes_file(tmp_path):
    QuarantineStore().write_jsonl(str(tmp_path))
    assert (tmp_path / QUARANTINE_FILENAME).read_text() == ""


def test_failed_export_leaves_previous_file_intact(tmp_path):
    good = QuarantineStore()
    good.quarantine("listings", "offer_url.missing", "no url")
    good.quarantine("sellers", "name.missing", "no name")
    path = good.write_jsonl(str(tmp_path))
    before = open(path, "rb").read()
    bad = QuarantineStore()
    bad.quarantine("profiles", "handle.missing", "no handle")
    bad.quarantine("posts", "text.invalid", "unencodable",
                   record={"tags": {"a", "b"}})  # a set is not JSON
    with pytest.raises(TypeError):
        bad.write_jsonl(str(tmp_path))
    assert open(path, "rb").read() == before
    assert os.listdir(tmp_path) == [QUARANTINE_FILENAME]
