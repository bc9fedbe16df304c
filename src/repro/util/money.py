"""Money handling for listing prices.

Marketplace prices are advertised in whole US dollars (the paper reports
medians like $157 and totals like $64,228,836).  We store integer cents to
avoid float drift when summing tens of thousands of listings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def is_valid_price(value) -> bool:
    """True for a finite, non-negative number that can act as a price.

    Rejects None, NaN/inf, negatives, bools, and non-numeric types —
    the gate that keeps NaN out of every price aggregate.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return math.isfinite(value) and value >= 0


@dataclass(frozen=True, order=True)
class Money:
    """An immutable USD amount stored as integer cents."""

    cents: int

    @classmethod
    def dollars(cls, amount: float) -> "Money":
        if not math.isfinite(amount):
            raise ValueError(f"non-finite dollar amount: {amount!r}")
        return cls(round(amount * 100))

    @property
    def as_dollars(self) -> float:
        return self.cents / 100.0

    def __add__(self, other: "Money") -> "Money":
        return Money(self.cents + other.cents)

    def __sub__(self, other: "Money") -> "Money":
        return Money(self.cents - other.cents)

    def __mul__(self, factor: int) -> "Money":
        if not isinstance(factor, int):
            raise TypeError("Money can only be multiplied by an integer")
        return Money(self.cents * factor)

    def __str__(self) -> str:
        return format_usd(self.as_dollars)


def format_usd(amount: float) -> str:
    """Format a dollar amount the way the paper prints it.

    >>> format_usd(64228836)
    '$64,228,836'
    >>> format_usd(157.5)
    '$157.50'
    """
    if not math.isfinite(amount):
        raise ValueError(f"non-finite dollar amount: {amount!r}")
    if amount == int(amount):
        return f"${int(amount):,}"
    return f"${amount:,.2f}"


__all__ = ["Money", "format_usd", "is_valid_price"]
