"""Section 4.1: anatomy of the public marketplaces (Tables 1–3).

Everything here is computed from extracted listing/seller records:
per-marketplace volumes, seller countries, category structure, verified
claims, monetization, description strategies, advertised followers,
prices (medians, totals, the >$20K block, the Figure-3 outlier), and the
payment-method matrix.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.dataset import ListingRecord, MeasurementDataset, SellerRecord
from repro.util.money import is_valid_price
from repro.util.stats import Summary, counter_topn, median, summarize

#: Keyword rules for the eight description strategies (Section 4.1's
#: "manual evaluation based on keyword analysis", as an explicit codebook).
DESCRIPTION_STRATEGY_RULES: Dict[str, Tuple[str, ...]] = {
    "authentic": ("authentic", "real followers", "no bots"),
    "fresh_and_ready": ("fresh and ready", "no shout outs"),
    "business_adaptability": ("rebrand", "any business niche", "adapt"),
    "real_user_activity": ("daily activity", "real users with"),
    "original_email_included": ("original email", "ownership transfer"),
    "never_monetized": ("never monetized", "no strikes"),
    "aged_account": ("aged account", "registered years ago"),
    "bulk_discount": ("bulk packages", "wholesale prices"),
}


def classify_description_strategy(description: str) -> Optional[str]:
    """Match a listing description against the strategy codebook."""
    lowered = description.lower()
    for strategy, needles in DESCRIPTION_STRATEGY_RULES.items():
        if any(needle in lowered for needle in needles):
            return strategy
    return None


#: Keyword rules for the three income-source narratives Section 4.1
#: counts (335 generic ad revenue, 73 AdSense, 73 memberships).
INCOME_NARRATIVE_RULES: Dict[str, Tuple[str, ...]] = {
    "generic ad-based revenue": ("promotion plans", "selling promotion", "revenue share", "sell posts"),
    "Google AdSense": ("adsense",),
    "premium memberships / channel monetization": ("memberships", "watermarks", "promo videos"),
}


def classify_income_narrative(text: str) -> Optional[str]:
    """Match an income-source blurb against the narrative codebook."""
    lowered = text.lower()
    for narrative, needles in INCOME_NARRATIVE_RULES.items():
        if any(needle in lowered for needle in needles):
            return narrative
    return None


@dataclass
class PriceReport:
    """Price structure of the advertised listings (Section 4.1)."""

    medians_by_platform: Dict[str, float]
    totals_by_platform: Dict[str, float]
    overall_median: float
    overall_total: float
    high_price_count: int
    high_price_median: float
    high_price_max: float
    high_price_total: float
    #: Listings priced so absurdly they distort aggregates (Figure 3).
    outliers: List[ListingRecord] = field(default_factory=list)

    @property
    def top_platform(self) -> str:
        return max(self.totals_by_platform, key=lambda p: self.totals_by_platform[p])

    @property
    def bottom_platform(self) -> str:
        return min(self.totals_by_platform, key=lambda p: self.totals_by_platform[p])


@dataclass
class AnatomyReport:
    """All Section-4.1 aggregates."""

    listings_total: int
    sellers_total: int
    table1: Dict[str, Tuple[int, int]]  # marketplace -> (sellers, listings)
    table2: Dict[str, Tuple[int, int, int]]  # platform -> (visible, posts, all)
    visible_total: int
    posts_total: int
    seller_countries: Counter
    seller_country_disclosed: int
    category_counts: Counter
    uncategorized: int
    verified_count: int
    verified_platforms: Counter
    verified_with_profile_url: int
    monetized: Summary  # monthly revenue summary over monetized listings
    income_source_count: int
    income_narratives: Counter
    description_count: int
    strategy_counts: Counter
    followers_shown_count: int
    follower_medians_by_platform: Dict[str, float]
    prices: PriceReport


#: Prices at or above this are Figure-3 outliers, kept out of every
#: aggregate.
OUTLIER_THRESHOLD = 10_000_000.0
#: Section 4.1's "> $20K" block.
HIGH_PRICE_THRESHOLD = 20_000.0


class MarketplaceAnatomy:
    """Computes the Section-4.1 report from a measurement dataset."""

    def run(self, dataset: MeasurementDataset) -> AnatomyReport:
        listings = dataset.listings
        return AnatomyReport(
            listings_total=len(listings),
            sellers_total=len(dataset.sellers),
            table1=self._table1(dataset),
            table2=self._table2(dataset),
            visible_total=len(dataset.visible_listings()),
            posts_total=len(dataset.posts),
            seller_countries=self._seller_countries(dataset.sellers),
            seller_country_disclosed=sum(
                1 for s in dataset.sellers if s.country
            ),
            category_counts=self._categories(listings),
            uncategorized=sum(1 for l in listings if not l.category),
            verified_count=sum(1 for l in listings if l.verified_claim),
            verified_platforms=Counter(
                l.platform for l in listings if l.verified_claim and l.platform
            ),
            verified_with_profile_url=sum(
                1 for l in listings if l.verified_claim and l.has_visible_profile
            ),
            monetized=self._monetization(listings),
            income_source_count=sum(1 for l in listings if l.income_source),
            income_narratives=Counter(
                narrative
                for narrative in (
                    classify_income_narrative(l.income_source)
                    for l in listings if l.income_source
                )
                if narrative
            ),
            description_count=sum(1 for l in listings if l.description),
            strategy_counts=self._strategies(listings),
            followers_shown_count=sum(
                1 for l in listings if l.followers_claimed is not None
            ),
            follower_medians_by_platform=self._follower_medians(listings),
            prices=self.price_report(listings),
        )

    # -- tables -----------------------------------------------------------

    def _table1(self, dataset: MeasurementDataset) -> Dict[str, Tuple[int, int]]:
        listings_by_market = dataset.listings_by_marketplace()
        sellers_by_market: Counter = Counter(s.marketplace for s in dataset.sellers)
        return {
            market: (sellers_by_market.get(market, 0), len(records))
            for market, records in sorted(
                listings_by_market.items(), key=lambda kv: -len(kv[1])
            )
        }

    def _table2(self, dataset: MeasurementDataset) -> Dict[str, Tuple[int, int, int]]:
        all_by_platform: Counter = Counter(
            l.platform for l in dataset.listings if l.platform
        )
        visible_by_platform: Counter = Counter(
            l.platform for l in dataset.visible_listings() if l.platform
        )
        posts_by_platform: Counter = Counter(p.platform for p in dataset.posts)
        return {
            platform: (
                visible_by_platform.get(platform, 0),
                posts_by_platform.get(platform, 0),
                all_by_platform.get(platform, 0),
            )
            for platform in sorted(all_by_platform)
        }

    # -- sellers ---------------------------------------------------------------

    def _seller_countries(self, sellers: List[SellerRecord]) -> Counter:
        return Counter(s.country for s in sellers if s.country)

    # -- categories ---------------------------------------------------------------

    def _categories(self, listings: List[ListingRecord]) -> Counter:
        return Counter(l.category for l in listings if l.category)

    # -- monetization -----------------------------------------------------------------

    def _monetization(self, listings: List[ListingRecord]) -> Summary:
        revenues = [
            l.monthly_revenue_usd for l in listings
            if is_valid_price(l.monthly_revenue_usd)
        ]
        if not revenues:
            return Summary(count=0, minimum=0, median=0, maximum=0, mean=0, total=0)
        return summarize(revenues)

    # -- descriptions -------------------------------------------------------------------

    def _strategies(self, listings: List[ListingRecord]) -> Counter:
        counts: Counter = Counter()
        for listing in listings:
            if not listing.description:
                continue
            strategy = classify_description_strategy(listing.description)
            if strategy:
                counts[strategy] += 1
        return counts

    # -- followers ------------------------------------------------------------------------

    def _follower_medians(self, listings: List[ListingRecord]) -> Dict[str, float]:
        by_platform: Dict[str, List[int]] = {}
        for listing in listings:
            if listing.followers_claimed is not None and listing.platform:
                by_platform.setdefault(listing.platform, []).append(
                    listing.followers_claimed
                )
        return {p: median(values) for p, values in sorted(by_platform.items())}

    # -- prices ----------------------------------------------------------------------------

    def price_report(self, listings: List[ListingRecord]) -> PriceReport:
        # is_valid_price (not a None check): a NaN that slipped past the
        # contract boundary must not poison every aggregate below.
        priced = [l for l in listings if is_valid_price(l.price_usd)]
        outliers = [l for l in priced if l.price_usd >= OUTLIER_THRESHOLD]
        regular = [l for l in priced if l.price_usd < OUTLIER_THRESHOLD]
        by_platform: Dict[str, List[float]] = {}
        for listing in regular:
            if listing.platform:
                by_platform.setdefault(listing.platform, []).append(listing.price_usd)
        high = [l.price_usd for l in regular if l.price_usd > HIGH_PRICE_THRESHOLD]
        all_prices = [l.price_usd for l in regular]
        return PriceReport(
            medians_by_platform={p: median(v) for p, v in sorted(by_platform.items())},
            totals_by_platform={p: sum(v) for p, v in sorted(by_platform.items())},
            overall_median=median(all_prices) if all_prices else 0.0,
            overall_total=sum(all_prices),
            high_price_count=len(high),
            high_price_median=median(high) if high else 0.0,
            high_price_max=max(high) if high else 0.0,
            high_price_total=sum(high),
            outliers=sorted(outliers, key=lambda l: -(l.price_usd or 0)),
        )

    # -- payments (Table 3) --------------------------------------------------------------------

    @staticmethod
    def payment_matrix(
        payment_methods: Dict[str, List[Tuple[str, str]]]
    ) -> Dict[str, Dict[str, List[str]]]:
        """marketplace -> group -> methods; markets with no public info
        get the single group 'Unknown' (as in Table 3)."""
        matrix: Dict[str, Dict[str, List[str]]] = {}
        for market, methods in payment_methods.items():
            groups: Dict[str, List[str]] = {}
            for group, method in methods:
                groups.setdefault(group, []).append(method)
            if not groups:
                groups["Unknown"] = ["Unknown"]
            matrix[market] = {g: sorted(ms) for g, ms in sorted(groups.items())}
        return matrix

    @staticmethod
    def top_categories(report: AnatomyReport, n: int = 5) -> List[Tuple[str, int]]:
        return counter_topn(report.category_counts, n)

    @staticmethod
    def top_seller_countries(report: AnatomyReport, n: int = 5) -> List[Tuple[str, int]]:
        return counter_topn(report.seller_countries, n)


__all__ = [
    "AnatomyReport",
    "DESCRIPTION_STRATEGY_RULES",
    "MarketplaceAnatomy",
    "PriceReport",
    "classify_description_strategy",
]
