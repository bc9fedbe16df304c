"""Simulated time: dates, the study window, and a monotonic clock.

The paper's crawl ran from February to June 2024 in repeated iterations
(Figure 2 plots cumulative vs. active listings per iteration).  We model
that window's bounds as :class:`SimDate` constants, and give the crawler
a :class:`SimClock` so site latency, retry backoff and breaker cooldowns
are deterministic and free of wall-clock sleeps.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class SimDate:
    """A calendar date in the simulated world (thin wrapper over ``date``)."""

    year: int
    month: int
    day: int

    @classmethod
    def of(cls, year: int, month: int, day: int) -> "SimDate":
        _dt.date(year, month, day)  # validate
        return cls(year, month, day)

    @classmethod
    def from_date(cls, d: _dt.date) -> "SimDate":
        return cls(d.year, d.month, d.day)

    def to_date(self) -> _dt.date:
        return _dt.date(self.year, self.month, self.day)

    def ordinal(self) -> int:
        return self.to_date().toordinal()

    def plus_days(self, days: int) -> "SimDate":
        return SimDate.from_date(self.to_date() + _dt.timedelta(days=days))

    def days_until(self, other: "SimDate") -> int:
        return other.ordinal() - self.ordinal()

    def isoformat(self) -> str:
        return self.to_date().isoformat()

    @classmethod
    def parse(cls, text: str) -> "SimDate":
        return cls.from_date(_dt.date.fromisoformat(text))

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return self.isoformat()


#: The paper's data-collection window (Section 1: "From February to June 2024").
STUDY_START = SimDate.of(2024, 2, 1)
STUDY_END = SimDate.of(2024, 6, 30)


class SimClock:
    """A monotonic simulated clock measured in seconds.

    Each request advances it by its site's latency and each retry by
    its backoff, so crawls are deterministic and run at CPU speed rather
    than wall-clock speed.
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError("start must be non-negative")
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError("cannot advance the clock backwards")
        self._now += seconds
        return self._now


__all__ = [
    "STUDY_END",
    "STUDY_START",
    "SimClock",
    "SimDate",
]
