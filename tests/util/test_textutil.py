"""Tests for text helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.textutil import (
    collapse_whitespace,
    compact_number,
    parse_compact_number,
    slugify,
    strip_numbers,
    truncate,
    words,
)


class TestSlugify:
    def test_basic(self):
        assert slugify("Humor/Memes & Fun!") == "humor-memes-fun"

    def test_accents_are_stripped(self):
        assert slugify("Café Olé") == "cafe-ole"

    def test_never_has_leading_or_trailing_dash(self):
        assert slugify("  --weird--  ") == "weird"

    @given(st.text(max_size=60))
    @settings(max_examples=80)
    def test_property_output_is_url_safe(self, text):
        slug = slugify(text)
        assert all(c.isascii() and (c.isalnum() or c == "-") for c in slug)


class TestWords:
    def test_lowercases_and_splits(self):
        assert words("Selling 5 AGED Accounts!") == ["selling", "aged", "accounts"]

    def test_keeps_apostrophes(self):
        assert words("don't stop") == ["don't", "stop"]

    def test_strip_numbers(self):
        assert strip_numbers("paid 1,234.50 dollars") == "paid dollars"


class TestCompactNumbers:
    def test_round_trip_millions(self):
        assert parse_compact_number(compact_number(2_100_000)) == 2_100_000

    def test_small_values_unchanged(self):
        assert compact_number(980) == "980"

    def test_parse_plain_with_separators(self):
        assert parse_compact_number("1,078,130") == 1_078_130

    def test_parse_lowercase_suffix(self):
        assert parse_compact_number("13.5k") == 13_500

    def test_parse_rejects_empty(self):
        with pytest.raises(ValueError):
            parse_compact_number("  ")

    @given(st.integers(min_value=0, max_value=10**10))
    @settings(max_examples=80)
    def test_property_roundtrip_within_precision(self, value):
        parsed = parse_compact_number(compact_number(value))
        # Compact form keeps one decimal: 5% relative error bound.
        assert abs(parsed - value) <= max(1, 0.05 * value)


class TestMisc:
    def test_collapse_whitespace(self):
        assert collapse_whitespace("  a \n b\t c ") == "a b c"

    def test_truncate_short_unchanged(self):
        assert truncate("abc", 10) == "abc"

    def test_truncate_appends_ellipsis(self):
        assert truncate("abcdefgh", 6) == "abc..."[:6]
        assert truncate("abcdefgh", 6).endswith("...")

    def test_truncate_negative_rejected(self):
        with pytest.raises(ValueError):
            truncate("abc", -1)
