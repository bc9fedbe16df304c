"""Shared utilities: seeded randomness, simulated time, stats, text, money.

Everything in :mod:`repro` that needs randomness draws it from an
:class:`~repro.util.rng.RngTree` so that an entire ecosystem, crawl, and
analysis run is reproducible from a single root seed.
"""

from repro.util.fileio import atomic_write, atomic_write_json, atomic_write_text
from repro.util.money import Money, format_usd
from repro.util.rng import RngTree
from repro.util.simtime import SimClock, SimDate
from repro.util.stats import Summary, cdf_points, median, percentile, summarize

__all__ = [
    "Money",
    "RngTree",
    "SimClock",
    "SimDate",
    "Summary",
    "atomic_write",
    "atomic_write_json",
    "atomic_write_text",
    "cdf_points",
    "format_usd",
    "median",
    "percentile",
    "summarize",
]
