"""Seller generation (Section 4.1).

Table 1 gives per-marketplace seller counts; five marketplaces hide
seller identity entirely.  Disclosed sellers come from 138 countries with
the US / Ethiopia / Pakistan / UK / Turkey head, while most sellers do
not disclose a country at all.
"""

from __future__ import annotations

from typing import Dict, List

from repro.synthetic import calibration as cal
from repro.synthetic.countries import COUNTRIES, SELLER_COUNTRY_HEAD
from repro.synthetic.model import Seller
from repro.synthetic.names import NameForge
from repro.util.rng import RngTree, ZipfTable
from repro.util.simtime import SimDate


class SellerFactory:
    """Builds the seller population for one or more marketplaces."""

    def __init__(self, rng: RngTree, forge: NameForge) -> None:
        self._rng = rng
        self._forge = forge
        self._counter = 0
        head = SELLER_COUNTRY_HEAD
        self._head = head
        self._head_weights = [float(c) for _n, c in cal.SELLER_TOP_COUNTRIES]
        self._tail = [c for c in COUNTRIES if c not in head][
            : cal.SELLER_COUNTRY_COUNT - len(head)
        ]
        self._tail_zipf = ZipfTable(len(self._tail), s=0.6)
        total_disclosed = 8833.0  # Section 4.1: sellers that disclosed a country
        self._head_share = sum(self._head_weights) / total_disclosed

    def _country(self) -> str:
        rng = self._rng
        if rng.bernoulli(self._head_share):
            return rng.weighted_choice(self._head, self._head_weights)
        return self._tail[rng.zipf_index(self._tail_zipf)]

    def build_market_sellers(self, marketplace: str, count: int) -> List[Seller]:
        """Generate ``count`` sellers for one marketplace."""
        rng = self._rng
        sellers: List[Seller] = []
        for _ in range(count):
            self._counter += 1
            country = (
                self._country()
                if rng.bernoulli(cal.SELLER_COUNTRY_DISCLOSED_FRACTION)
                else None
            )
            sellers.append(
                Seller(
                    seller_id=f"seller-{self._counter:06d}",
                    marketplace=marketplace,
                    name=self._forge.seller_name(),
                    country=country,
                    joined=SimDate.of(
                        rng.randint(2018, 2023), rng.randint(1, 12), rng.randint(1, 28)
                    ),
                    rating=round(rng.uniform(3.0, 5.0), 1),
                )
            )
        return sellers

    def assign_listings(self, sellers: List[Seller], listing_count: int) -> List[str]:
        """Assign each of ``listing_count`` listings a seller id.

        Heavy-tailed: a few power sellers own many listings (FameSwap has
        6,617 sellers for 8,833 listings — most sellers have one or two —
        while Accsmarket has 2,455 sellers for 13,665).
        """
        rng = self._rng
        if not sellers:
            return []
        # Every seller in Table 1 was *observed*, i.e. had at least one
        # listing: cover each seller once (as far as listings allow), then
        # hand the remainder to a Zipf head of power sellers.
        assignments: List[str] = [
            sellers[i % len(sellers)].seller_id
            for i in range(min(len(sellers), listing_count))
        ]
        power_sellers = ZipfTable(len(sellers), s=0.85)
        for _ in range(listing_count - len(assignments)):
            index = rng.zipf_index(power_sellers)
            assignments.append(sellers[index].seller_id)
        rng.shuffle(assignments)
        return assignments


__all__ = ["SellerFactory"]
