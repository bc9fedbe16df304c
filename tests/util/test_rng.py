"""Tests for the hierarchical RNG tree."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.util.rng import RngTree, ZipfTable


def reference_zipf_index(rng: RngTree, n: int, s: float) -> int:
    """The per-draw linear walk over freshly computed weights that
    ``ZipfTable`` replaced, kept as the reference for its draws."""
    weights = [1.0 / (i + 1) ** s for i in range(n)]
    total = sum(weights)
    u = rng.random() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if u <= acc:
            return i
    return n - 1


class _Fixed:
    """A stand-in for ``random.Random`` whose ``random()`` is one value."""

    def __init__(self, value: float) -> None:
        self._value = value

    def random(self) -> float:
        return self._value


def _fixed_rng(u: float) -> RngTree:
    rng = RngTree(0)
    rng._random = _Fixed(u)
    return rng


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = [RngTree(42).random() for _ in range(5)]
        b = [RngTree(42).random() for _ in range(5)]
        # Each constructor restarts the stream.
        assert a[0] == b[0]

    def test_children_are_independent_of_creation_order(self):
        root = RngTree(42)
        first = root.child("sellers").randint(0, 10**9)
        root2 = RngTree(42)
        root2.child("listings")  # created before "sellers" this time
        second = root2.child("sellers").randint(0, 10**9)
        assert first == second

    def test_drawing_from_one_child_does_not_affect_sibling(self):
        root = RngTree(7)
        a = root.child("a")
        for _ in range(100):
            a.random()
        b_value = root.child("b").random()
        assert b_value == RngTree(7).child("b").random()

    def test_distinct_names_give_distinct_streams(self):
        root = RngTree(1)
        assert root.child("x").random() != root.child("y").random()

    def test_nested_children(self):
        v1 = RngTree(5).child("a").child("b").random()
        v2 = RngTree(5).child("a").child("b").random()
        assert v1 == v2


class TestDistributions:
    def test_bernoulli_extremes(self):
        rng = RngTree(3)
        assert not rng.bernoulli(0.0)
        assert all(RngTree(i).bernoulli(1.0) for i in range(5))

    def test_lognormal_median_is_respected(self):
        rng = RngTree(11)
        samples = sorted(rng.lognormal(100.0, 1.0) for _ in range(4001))
        median = samples[len(samples) // 2]
        assert 80 < median < 125

    def test_lognormal_rejects_nonpositive_median(self):
        with pytest.raises(ValueError):
            RngTree(1).lognormal(0, 1.0)

    def test_pareto_int_respects_minimum_and_cap(self):
        rng = RngTree(13)
        values = [rng.pareto_int(5, alpha=1.0, cap=100) for _ in range(500)]
        assert min(values) >= 5
        assert max(values) <= 100

    def test_zipf_index_in_range_and_head_heavy(self):
        rng = RngTree(17)
        table = ZipfTable(50, s=1.2)
        draws = [rng.zipf_index(table) for _ in range(2000)]
        assert all(0 <= d < 50 for d in draws)
        head = sum(1 for d in draws if d < 5)
        tail = sum(1 for d in draws if d >= 45)
        assert head > tail

    def test_zipf_index_rejects_empty(self):
        with pytest.raises(ValueError):
            ZipfTable(0, s=1.1)

    def test_weighted_choice_respects_zero_weight(self):
        rng = RngTree(19)
        picks = {rng.weighted_choice(["a", "b"], [1.0, 0.0]) for _ in range(50)}
        assert picks == {"a"}

    def test_choice_empty_raises(self):
        with pytest.raises(ValueError):
            RngTree(1).choice([])

    def test_shuffled_leaves_input_unchanged(self):
        rng = RngTree(23)
        original = [1, 2, 3, 4, 5]
        copy = list(original)
        rng.shuffled(original)
        assert original == copy


class TestPartitionCount:
    def test_exact_total(self):
        rng = RngTree(29)
        parts = rng.partition_count(100, [1, 2, 3, 4])
        assert sum(parts) == 100

    def test_proportionality(self):
        rng = RngTree(31)
        parts = rng.partition_count(1000, [1.0, 3.0])
        assert parts[1] > parts[0]
        assert abs(parts[0] - 250) <= 1

    def test_zero_total(self):
        assert RngTree(1).partition_count(0, [1, 1]) == [0, 0]

    def test_rejects_negative_total(self):
        with pytest.raises(ValueError):
            RngTree(1).partition_count(-1, [1])

    def test_rejects_zero_weights(self):
        with pytest.raises(ValueError):
            RngTree(1).partition_count(10, [0.0, 0.0])

    @given(
        total=st.integers(min_value=0, max_value=5000),
        weights=st.lists(st.floats(min_value=0.01, max_value=100), min_size=1, max_size=20),
    )
    @settings(max_examples=60)
    def test_property_sums_and_bounds(self, total, weights):
        parts = RngTree(1).partition_count(total, weights)
        assert sum(parts) == total
        assert all(p >= 0 for p in parts)
        # Largest-remainder rounding keeps every bucket within 1 of exact.
        weight_sum = sum(weights)
        for part, weight in zip(parts, weights):
            exact = total * weight / weight_sum
            assert abs(part - exact) < 1.0 + 1e-9


class TestZipfTable:
    @given(n=st.integers(1, 400), s=st.floats(0.0, 3.0),
           seed=st.integers(0, 2**64 - 1), draws=st.integers(1, 30))
    @example(n=6_617, s=0.85, seed=99, draws=300)  # a marketplace's sellers
    @settings(max_examples=200, deadline=None)
    def test_draws_match_reference_walk(self, n, s, seed, draws):
        table = ZipfTable(n, s)
        shipped, reference = RngTree(seed), RngTree(seed)
        assert ([shipped.zipf_index(table) for _ in range(draws)]
                == [reference_zipf_index(reference, n, s)
                    for _ in range(draws)])

    @given(n=st.integers(1, 400), s=st.floats(0.0, 3.0),
           u=st.floats(0.0, 1.0, exclude_max=True))
    @example(n=1, s=1.1, u=0.0)
    @example(n=2, s=0.6, u=5e-324)
    @example(n=288, s=0.7, u=1.0 - 2.0 ** -53)
    @example(n=6_617, s=0.85, u=1.0 - 2.0 ** -53)
    # s = 0 makes every weight 1.0, so these draws land exactly on a
    # running sum, which takes that sum's index.
    @example(n=4, s=0.0, u=0.25)
    @example(n=4, s=0.0, u=0.5)
    @example(n=4, s=0.0, u=0.75)
    @settings(deadline=None)
    def test_any_uniform_draw_matches_reference_walk(self, n, s, u):
        assert (_fixed_rng(u).zipf_index(ZipfTable(n, s))
                == reference_zipf_index(_fixed_rng(u), n, s))

    def test_draw_past_last_running_sum_takes_last_index(self):
        table = ZipfTable(10, s=1.0)
        table.total = table.cumulative[-1] * 2  # a sum rounded upward
        assert _fixed_rng(0.999).zipf_index(table) == 9

    def test_table_holds_running_sums_and_sum(self):
        # At this size another summation order changes the total's last
        # bit, so the check pins ``sum`` over the weights in index order.
        table = ZipfTable(6_617, s=0.85)
        weights = [1.0 / (i + 1) ** 0.85 for i in range(6_617)]
        running, acc = [], 0.0
        for w in weights:
            acc += w
            running.append(acc)
        assert table.cumulative == running
        assert table.total == sum(weights)
