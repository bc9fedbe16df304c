"""Property-based persistence roundtrips for the dataset store.

The segmented store must return exactly what it was given, for
*hostile* record contents: unicode well outside ASCII, control
characters and newline-ish code points inside strings, NaN-adjacent
float prices (inf, tiny subnormals, negative zero), and record types
that happen to be empty.  Byte identity of save→load→save is the
twin-run invariant CI diffs; field identity of save→load is what the
analyses depend on.
"""

import dataclasses
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import (
    ListingRecord,
    MeasurementDataset,
    PostRecord,
    ProfileRecord,
    SellerRecord,
    UndergroundRecord,
    record_to_dict,
)
from repro.store import load_dataset, save_dataset

from tests.conftest import tree_bytes

# -- strategies --------------------------------------------------------------

# Deliberately nasty text: emoji, RTL, control chars, quotes, backslashes,
# JSON-significant punctuation, and raw newlines/tabs inside values.
_nasty_text = st.text(
    alphabet=st.characters(
        codec="utf-8",
        categories=("L", "N", "P", "S", "Z", "Cc"),
    ),
    max_size=60,
)

# NaN-adjacent but JSON-representable prices: infinities and NaN are
# excluded (json.dumps would emit non-standard tokens the loader then
# reparses asymmetrically); everything else weird is fair game.
_weird_price = st.one_of(
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)

_opt_int = st.one_of(st.none(), st.integers(min_value=-10**9,
                                            max_value=10**12))
_opt_text = st.one_of(st.none(), _nasty_text)

_listing = st.builds(
    ListingRecord,
    offer_url=_nasty_text,
    marketplace=_nasty_text,
    title=_nasty_text,
    price_usd=_weird_price,
    followers_claimed=_opt_int,
    monthly_revenue_usd=_weird_price,
    description=_opt_text,
    seller_url=_opt_text,
    profile_url=_opt_text,
    verified_claim=st.booleans(),
    first_seen_iteration=st.integers(min_value=0, max_value=100),
    last_seen_iteration=st.integers(min_value=0, max_value=100),
)

_seller = st.builds(
    SellerRecord,
    seller_url=_nasty_text,
    marketplace=_nasty_text,
    name=_opt_text,
    country=_opt_text,
    rating=_weird_price,
)

_profile = st.builds(
    ProfileRecord,
    profile_url=_nasty_text,
    platform=_nasty_text,
    handle=_nasty_text,
    status=st.sampled_from(["active", "banned", "private", "not_found"]),
    followers=_opt_int,
    description=_opt_text,
)

_post = st.builds(
    PostRecord,
    post_id=_nasty_text,
    platform=_nasty_text,
    handle=_nasty_text,
    text=_nasty_text,
    likes=st.integers(min_value=0, max_value=10**9),
)

_underground = st.builds(
    UndergroundRecord,
    url=_nasty_text,
    market=_nasty_text,
    title=_nasty_text,
    body=_nasty_text,
    author=_nasty_text,
    price_usd=_weird_price,
    quantity=st.integers(min_value=0, max_value=10**6),
)

# Any record-type list may be empty — empty families must roundtrip to
# empty, not to missing-by-accident or to a crash.
_dataset = st.builds(
    MeasurementDataset,
    sellers=st.lists(_seller, max_size=4),
    listings=st.lists(_listing, max_size=4),
    profiles=st.lists(_profile, max_size=4),
    posts=st.lists(_post, max_size=4),
    underground=st.lists(_underground, max_size=4),
)


def _fields_equal(a, b) -> bool:
    """Dataclass equality that treats NaN-position floats as equal."""
    if a == b:
        return True
    for field_name in a.__dataclass_fields__:
        va, vb = getattr(a, field_name), getattr(b, field_name)
        if va == vb:
            continue
        if (isinstance(va, float) and isinstance(vb, float)
                and math.isnan(va) and math.isnan(vb)):
            continue
        return False
    return True


def _datasets_equal(a: MeasurementDataset, b: MeasurementDataset) -> bool:
    for name in ("sellers", "listings", "profiles", "posts", "underground"):
        left, right = getattr(a, name), getattr(b, name)
        if len(left) != len(right):
            return False
        if not all(_fields_equal(x, y) for x, y in zip(left, right)):
            return False
    return True


class TestStoreRoundtrip:
    @settings(max_examples=40, deadline=None)
    @given(dataset=_dataset)
    def test_save_load_field_identity(self, dataset, tmp_path_factory):
        directory = str(tmp_path_factory.mktemp("store"))
        report = save_dataset(dataset, directory)
        assert report.complete
        loaded = load_dataset(directory)
        assert _datasets_equal(dataset, loaded)

    @settings(max_examples=25, deadline=None)
    @given(dataset=_dataset, segment_max=st.integers(min_value=1,
                                                     max_value=5))
    def test_byte_identity_across_segment_sizes(self, dataset, segment_max,
                                                tmp_path_factory):
        # Same records, same segment size -> byte-identical store; the
        # segment boundary must be a function of the data alone.
        first = str(tmp_path_factory.mktemp("store_a"))
        second = str(tmp_path_factory.mktemp("store_b"))
        save_dataset(dataset, first, segment_max_records=segment_max)
        reloaded = load_dataset(first)
        save_dataset(reloaded, second, segment_max_records=segment_max)
        assert tree_bytes(first) == tree_bytes(second)


class TestRecordEncoder:
    @settings(max_examples=200, deadline=None)
    @given(record=st.one_of(_seller, _listing, _profile, _post, _underground,
                            st.builds(SellerRecord), st.builds(ListingRecord),
                            st.builds(ProfileRecord), st.builds(PostRecord),
                            st.builds(UndergroundRecord)))
    def test_encoder_equals_asdict(self, record):
        # The store's payload, key order included, is what
        # ``dataclasses.asdict`` gave for every record type.
        encoded = record_to_dict(record)
        reference = dataclasses.asdict(record)
        assert list(encoded) == list(reference)
        assert json.dumps(encoded, sort_keys=True) \
            == json.dumps(reference, sort_keys=True)
        assert all(encoded[key] is getattr(record, key) for key in encoded)
