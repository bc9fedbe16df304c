"""Tests for simulated dates, the study window, and the clock."""

import pytest

from repro.util.simtime import (
    STUDY_END,
    STUDY_START,
    SimClock,
    SimDate,
)


class TestSimDate:
    def test_ordering(self):
        assert SimDate.of(2024, 2, 1) < SimDate.of(2024, 6, 30)

    def test_plus_days_crosses_month(self):
        assert SimDate.of(2024, 2, 28).plus_days(2) == SimDate.of(2024, 3, 1)

    def test_days_until(self):
        assert SimDate.of(2024, 1, 1).days_until(SimDate.of(2024, 1, 31)) == 30

    def test_roundtrip_iso(self):
        date = SimDate.of(2021, 12, 5)
        assert SimDate.parse(date.isoformat()) == date

    def test_invalid_date_rejected(self):
        with pytest.raises(ValueError):
            SimDate.of(2024, 2, 30)

    def test_study_window_matches_paper(self):
        # "From February to June 2024"
        assert STUDY_START == SimDate.of(2024, 2, 1)
        assert STUDY_END == SimDate.of(2024, 6, 30)


class TestSimClock:
    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(2.5)
        assert clock.now() == 4.0

    def test_cannot_go_backwards(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            SimClock(start=-5)
