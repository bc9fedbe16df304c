"""Deterministic, hierarchical random-number generation.

A measurement reproduction must be replayable: the synthetic world, the
crawl order, and every sampling decision in the analyses all need to come
out identical for the same root seed.  A single shared ``random.Random``
makes that fragile — adding one draw anywhere reshuffles everything
downstream.  :class:`RngTree` instead derives an *independent* child stream
for each named component, so adding draws in one subsystem never perturbs
another.
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_left
from itertools import accumulate
from typing import Iterable, List, Optional, Sequence, TypeVar

T = TypeVar("T")

_MASK64 = (1 << 64) - 1


def _derive_seed(parent_seed: int, name: str) -> int:
    """Derive a stable 64-bit child seed from a parent seed and a label."""
    payload = f"{parent_seed & _MASK64:016x}:{name}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


class ZipfTable:
    """The truncated zeta distribution over ``[0, n)`` with weights
    ``1 / (i + 1) ** s``, for :meth:`RngTree.zipf_index`.

    Build one table per ``(n, s)`` where the draws happen: building
    costs ``O(n)``, and each draw is then one binary search over the
    running sums.
    """

    __slots__ = ("cumulative", "total")

    def __init__(self, n: int, s: float) -> None:
        if n <= 0:
            raise ValueError("n must be positive")
        weights = [1.0 / (i + 1) ** s for i in range(n)]
        # ``sum`` of floats is compensated on Python 3.12+, so ``total``
        # may differ from the last running sum; draws scale by ``total``
        # and compare against the running sums, so each stays as it is.
        self.total = sum(weights)
        self.cumulative = list(accumulate(weights))


class RngTree:
    """A named tree of independent pseudo-random streams.

    >>> root = RngTree(42)
    >>> a = root.child("sellers")
    >>> b = root.child("listings")
    >>> a.randint(0, 10) == RngTree(42).child("sellers").randint(0, 10)
    True

    Children are derived purely from ``(seed, name)``; the order in which
    children are created does not matter, and drawing from one child never
    affects another.
    """

    __slots__ = ("seed", "name", "_random")

    def __init__(self, seed: int, name: str = "root") -> None:
        self.seed = seed & _MASK64
        self.name = name
        self._random = random.Random(self.seed)

    def child(self, name: str) -> "RngTree":
        """Return an independent child stream identified by ``name``."""
        return RngTree(_derive_seed(self.seed, name), name=f"{self.name}/{name}")

    # -- thin passthroughs -------------------------------------------------

    def random(self) -> float:
        return self._random.random()

    def randint(self, low: int, high: int) -> int:
        return self._random.randint(low, high)

    def uniform(self, low: float, high: float) -> float:
        return self._random.uniform(low, high)

    def choice(self, items: Sequence[T]) -> T:
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return self._random.choice(items)

    def sample(self, items: Sequence[T], k: int) -> List[T]:
        return self._random.sample(items, k)

    def shuffle(self, items: list) -> None:
        self._random.shuffle(items)

    def shuffled(self, items: Iterable[T]) -> List[T]:
        out = list(items)
        self._random.shuffle(out)
        return out

    def gauss(self, mu: float, sigma: float) -> float:
        return self._random.gauss(mu, sigma)

    # -- distributions used by the world model ------------------------------

    def bernoulli(self, p: float) -> bool:
        """Return True with probability ``p``."""
        return self._random.random() < p

    def lognormal(self, median_value: float, sigma: float) -> float:
        """Sample a log-normal variate parameterized by its *median*.

        Prices and follower counts in the paper are heavy-tailed with a
        published median; parameterizing by the median makes the
        calibration constants directly usable.
        """
        if median_value <= 0:
            raise ValueError("median_value must be positive")
        return median_value * math.exp(self._random.gauss(0.0, sigma))

    def pareto_int(self, minimum: int, alpha: float, cap: Optional[int] = None) -> int:
        """Sample an integer from a Pareto tail starting at ``minimum``."""
        if minimum < 1:
            raise ValueError("minimum must be >= 1")
        value = minimum / (1.0 - self._random.random()) ** (1.0 / alpha)
        result = int(value)
        if cap is not None:
            result = min(result, cap)
        return max(minimum, result)

    def zipf_index(self, table: ZipfTable) -> int:
        """Sample an index of ``table`` with Zipf-like popularity decay.

        Used for the world's heavy tails: the power sellers that own the
        surplus listings, and the long tails of seller countries, profile
        locations and affiliated categories.  ``n`` reaches the thousands
        (a marketplace's sellers), hence the table.
        """
        # Inverse CDF: the first index whose running sum reaches u.  A u
        # past the last running sum (``total`` rounds differently) takes
        # the last index.
        u = self._random.random() * table.total
        cumulative = table.cumulative
        return min(bisect_left(cumulative, u), len(cumulative) - 1)

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        if len(items) != len(weights):
            raise ValueError("items and weights must have the same length")
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return self._random.choices(items, weights=weights, k=1)[0]

    def partition_count(self, total: int, buckets: Sequence[float]) -> List[int]:
        """Split ``total`` into integer bucket counts proportional to weights.

        Largest-remainder rounding, so the parts always sum to ``total``
        and each bucket gets within one of its exact share.  Used to carve
        the world's listing count into per-marketplace / per-platform
        shares matching the paper's tables.
        """
        if total < 0:
            raise ValueError("total must be non-negative")
        weight_sum = float(sum(buckets))
        if weight_sum <= 0:
            raise ValueError("weights must sum to a positive value")
        exact = [total * w / weight_sum for w in buckets]
        floors = [int(x) for x in exact]
        remainder = total - sum(floors)
        order = sorted(
            range(len(buckets)), key=lambda i: exact[i] - floors[i], reverse=True
        )
        for i in order[:remainder]:
            floors[i] += 1
        return floors


__all__ = ["RngTree", "ZipfTable"]
