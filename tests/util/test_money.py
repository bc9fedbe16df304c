"""Tests for money handling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.money import Money, format_usd

amounts = st.integers(min_value=-10**12, max_value=10**12)


class TestMoney:
    def test_dollars_roundtrip(self):
        assert Money.dollars(157.0).as_dollars == 157.0

    def test_cents_storage_avoids_float_drift(self):
        total = sum((Money.dollars(0.1) for _ in range(1000)), Money(0))
        assert total.cents == 10000

    def test_arithmetic(self):
        assert (Money(150) + Money(50)).cents == 200
        assert (Money(150) - Money(50)).cents == 100
        assert (Money(150) * 3).cents == 450

    def test_multiply_by_float_rejected(self):
        with pytest.raises(TypeError):
            Money(100) * 1.5

    def test_ordering(self):
        assert Money.dollars(14) < Money.dollars(755)

    @given(amounts, amounts)
    @settings(max_examples=50)
    def test_property_addition_commutes(self, a, b):
        assert (Money(a) + Money(b)).cents == (Money(b) + Money(a)).cents


class TestFormat:
    def test_whole_dollars_have_no_decimals(self):
        assert format_usd(64228836) == "$64,228,836"

    def test_fractional_dollars_keep_two_decimals(self):
        assert format_usd(157.5) == "$157.50"

    def test_str_uses_format(self):
        assert str(Money.dollars(45000)) == "$45,000"
