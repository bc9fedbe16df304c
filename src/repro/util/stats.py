"""Small statistics helpers used by the analyses and benchmarks.

The paper reports medians, min/median/max triples (Table 4), CDFs
(Figure 4), and percentage shares throughout.  These helpers keep that
arithmetic in one tested place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np


def median(values: Sequence[float]) -> float:
    """Median with the usual even-count interpolation.

    >>> median([1, 3, 2])
    2
    >>> median([1, 2, 3, 4])
    2.5
    """
    data = sorted(values)
    if not data:
        raise ValueError("median of an empty sequence")
    n = len(data)
    mid = n // 2
    if n % 2:
        return data[mid]
    return (data[mid - 1] + data[mid]) / 2


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not 0 <= q <= 100:
        raise ValueError("q must be within [0, 100]")
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sequence")
    if len(data) == 1:
        return data[0]
    pos = (len(data) - 1) * q / 100.0
    lower = int(pos)
    upper = min(lower + 1, len(data) - 1)
    frac = pos - lower
    return data[lower] * (1 - frac) + data[upper] * frac


@dataclass(frozen=True)
class Summary:
    """Min / median / max / mean / count summary of a numeric sample."""

    count: int
    minimum: float
    median: float
    maximum: float
    mean: float
    total: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "min": self.minimum,
            "median": self.median,
            "max": self.maximum,
            "mean": self.mean,
            "total": self.total,
        }


def summarize(values: Sequence[float]) -> Summary:
    """Summarize a non-empty numeric sample."""
    if not values:
        raise ValueError("cannot summarize an empty sequence")
    total = float(sum(values))
    return Summary(
        count=len(values),
        minimum=min(values),
        median=median(values),
        maximum=max(values),
        mean=total / len(values),
        total=total,
    )


def cdf_points(values: Sequence[float]) -> List[Tuple[float, float]]:
    """Return the empirical CDF as ``(value, fraction <= value)`` points.

    Used for Figure 4 (CDF of account-creation dates).

    >>> cdf_points([1, 1, 2])
    [(1, 0.6666666666666666), (2, 1.0)]
    """
    data = sorted(values)
    if not data:
        return []
    n = len(data)
    points: List[Tuple[float, float]] = []
    for i, v in enumerate(data):
        if i + 1 == n or data[i + 1] != v:
            points.append((v, (i + 1) / n))
    return points


def share(part: float, whole: float) -> float:
    """``part / whole`` as a percentage; 0 when ``whole`` is zero."""
    if whole == 0:
        return 0.0
    return 100.0 * part / whole


def counter_topn(counts: Dict[str, int], n: int) -> List[Tuple[str, int]]:
    """Top-``n`` (key, count) pairs, count-descending then key-ascending.

    Deterministic tie-breaking matters for reproducible table output.
    """
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:n]


def first_occurrence_counts(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``keys`` in order of first occurrence, and
    how often each occurs: the items of a ``Counter`` over ``keys``.

    >>> [a.tolist() for a in first_occurrence_counts(np.array([5, 2, 5, 9]))]
    [[5, 2, 9], [2, 1, 1]]
    """
    # ``return_index`` gives each value's first index (a stable sort).
    unique, first, counts = np.unique(keys, return_index=True,
                                      return_counts=True)
    order = np.argsort(first)
    return unique[order], counts[order]


def histogram(values: Iterable[float], edges: Sequence[float]) -> List[int]:
    """Count values into half-open bins ``[edges[i], edges[i+1])``.

    Values outside the edge range are dropped; the final bin is closed on
    the right so the maximum edge is inclusive.
    """
    if len(edges) < 2:
        raise ValueError("need at least two edges")
    if sorted(edges) != list(edges):
        raise ValueError("edges must be ascending")
    bins = [0] * (len(edges) - 1)
    lo, hi = edges[0], edges[-1]
    for v in values:
        if v < lo or v > hi:
            continue
        if v == hi:
            bins[-1] += 1
            continue
        # linear scan: edge lists here are tiny (years, price bands)
        for i in range(len(edges) - 1):
            if edges[i] <= v < edges[i + 1]:
                bins[i] += 1
                break
    return bins


__all__ = [
    "Summary",
    "cdf_points",
    "counter_topn",
    "first_occurrence_counts",
    "histogram",
    "median",
    "percentile",
    "share",
    "summarize",
]
