"""Tests for the statistics helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.stats import (
    cdf_points,
    counter_topn,
    histogram,
    median,
    percentile,
    share,
    summarize,
)

finite_floats = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)


class TestMedian:
    def test_odd(self):
        assert median([3, 1, 2]) == 2

    def test_even_interpolates(self):
        assert median([1, 2, 3, 4]) == 2.5

    def test_single(self):
        assert median([7]) == 7

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            median([])

    @given(st.lists(finite_floats, min_size=1, max_size=50))
    @settings(max_examples=80)
    def test_property_between_min_and_max(self, values):
        m = median(values)
        assert min(values) <= m <= max(values)

    @given(st.lists(finite_floats, min_size=1, max_size=50))
    @settings(max_examples=50)
    def test_property_at_least_half_on_each_side(self, values):
        m = median(values)
        n = len(values)
        assert sum(1 for v in values if v <= m) >= n / 2
        assert sum(1 for v in values if v >= m) >= n / 2


class TestPercentile:
    def test_endpoints(self):
        data = [1, 2, 3, 4, 5]
        assert percentile(data, 0) == 1
        assert percentile(data, 100) == 5

    def test_median_agreement(self):
        data = [1, 2, 3, 4]
        assert percentile(data, 50) == median(data)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1], 101)

    @given(st.lists(finite_floats, min_size=1, max_size=30),
           st.floats(min_value=0, max_value=100))
    @settings(max_examples=60)
    def test_property_within_sample_range(self, values, q):
        tolerance = 1e-9 * max(1.0, abs(min(values)), abs(max(values)))
        assert min(values) - tolerance <= percentile(values, q) <= max(values) + tolerance


class TestSummarize:
    def test_fields(self):
        s = summarize([1, 2, 3])
        assert (s.count, s.minimum, s.median, s.maximum, s.total) == (3, 1, 2, 3, 6)
        assert s.mean == pytest.approx(2.0)

    def test_as_dict_keys(self):
        assert set(summarize([1]).as_dict()) == {"count", "min", "median", "max", "mean", "total"}

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])


class TestCdf:
    def test_points_reach_one(self):
        points = cdf_points([5, 1, 3])
        assert points[-1][1] == pytest.approx(1.0)

    def test_duplicates_collapse(self):
        points = cdf_points([1, 1, 2])
        assert points == [(1, pytest.approx(2 / 3)), (2, pytest.approx(1.0))]

    def test_empty(self):
        assert cdf_points([]) == []

    @given(st.lists(finite_floats, min_size=1, max_size=50))
    @settings(max_examples=60)
    def test_property_monotone(self, values):
        points = cdf_points(values)
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        assert xs == sorted(xs)
        assert ys == sorted(ys)
        assert ys[-1] == pytest.approx(1.0)


class TestMisc:
    def test_share(self):
        assert share(1, 4) == 25.0
        assert share(1, 0) == 0.0

    def test_counter_topn_deterministic_ties(self):
        counts = {"b": 2, "a": 2, "c": 1}
        assert counter_topn(counts, 2) == [("a", 2), ("b", 2)]

    def test_histogram_bins(self):
        assert histogram([1, 2, 3, 10], [0, 5, 10]) == [3, 1]

    def test_histogram_drops_out_of_range(self):
        assert histogram([-1, 11], [0, 5, 10]) == [0, 0]

    def test_histogram_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            histogram([1], [5, 0])
        with pytest.raises(ValueError):
            histogram([1], [5])
