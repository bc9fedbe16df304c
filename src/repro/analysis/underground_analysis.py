"""Section 4.2: anatomy of the underground marketplaces.

From the manually collected postings: per-market activity and platform
specialization, posting length statistics, the text-reuse analysis
(case-insensitive word similarity after stripping numbers/punctuation,
grouped at the 88 % threshold), and cross-market seller identities.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.core.dataset import UndergroundRecord
from repro.nlp.similarity import ReuseGroup, reuse_groups
from repro.util.stats import median
from repro.util.textutil import words


@dataclass
class MarketStats:
    """Per-market summary (Section 4.2's narrative)."""

    market: str
    posts: int
    sellers: int
    platforms: Tuple[str, ...]
    mean_post_words: float
    bulk_posts: int  # quantity > 1


@dataclass
class PlatformReuse:
    """Per-platform reuse summary."""

    platform: str
    posts: int
    reused_posts: int
    groups: int
    authors_involved: int
    min_similarity: float
    max_similarity: float


@dataclass
class UndergroundReport:
    total_posts: int
    markets: Dict[str, MarketStats]
    posts_per_platform: Counter
    reuse_by_platform: Dict[str, PlatformReuse]
    cross_market_sellers: List[str]
    mean_words_range: Tuple[float, float]  # (min market mean, max market mean)
    groups: List[ReuseGroup] = field(default_factory=list)

    @property
    def most_active_market(self) -> str:
        return max(self.markets.values(), key=lambda m: m.posts).market


#: Postings at least this similar are one reuse group (the paper's 88 %).
SIMILARITY_THRESHOLD = 0.88


class UndergroundAnalysis:
    """Computes the Section-4.2 report from collected postings."""

    def run(self, postings: List[UndergroundRecord]) -> UndergroundReport:
        markets = self._market_stats(postings)
        posts_per_platform = Counter(
            p.platform for p in postings if p.platform
        )
        reuse = self._reuse_analysis(postings)
        means = [m.mean_post_words for m in markets.values() if m.posts]
        return UndergroundReport(
            total_posts=len(postings),
            markets=markets,
            posts_per_platform=posts_per_platform,
            reuse_by_platform=reuse[0],
            groups=reuse[1],
            cross_market_sellers=self._cross_market_sellers(postings),
            mean_words_range=(min(means), max(means)) if means else (0.0, 0.0),
        )

    def _market_stats(self, postings: List[UndergroundRecord]) -> Dict[str, MarketStats]:
        by_market: Dict[str, List[UndergroundRecord]] = {}
        for posting in postings:
            by_market.setdefault(posting.market, []).append(posting)
        stats: Dict[str, MarketStats] = {}
        for market, records in sorted(by_market.items()):
            lengths = [len(words(r.body)) for r in records]
            stats[market] = MarketStats(
                market=market,
                posts=len(records),
                sellers=len({r.author for r in records}),
                platforms=tuple(sorted({r.platform for r in records if r.platform})),
                mean_post_words=sum(lengths) / len(lengths) if lengths else 0.0,
                bulk_posts=sum(1 for r in records if r.quantity > 1),
            )
        return stats

    def _reuse_analysis(
        self, postings: List[UndergroundRecord]
    ) -> Tuple[Dict[str, PlatformReuse], List[ReuseGroup]]:
        """Per-platform similarity grouping, plus the global groups.

        Groups are computed over the whole corpus (reuse crosses markets
        and platforms), then attributed per platform.
        """
        texts = [p.body for p in postings]
        groups = reuse_groups(texts, threshold=SIMILARITY_THRESHOLD)
        in_group: Dict[int, ReuseGroup] = {}
        for group in groups:
            for index in group.indices:
                in_group[index] = group
        per_platform: Dict[str, PlatformReuse] = {}
        platforms = sorted({p.platform for p in postings if p.platform})
        for platform in platforms:
            indices = [i for i, p in enumerate(postings) if p.platform == platform]
            reused = [i for i in indices if i in in_group]
            platform_groups: Set[int] = {id(in_group[i]) for i in reused}
            authors = {postings[i].author for i in reused}
            sims = [
                (in_group[i].min_similarity, in_group[i].max_similarity)
                for i in reused
            ]
            per_platform[platform] = PlatformReuse(
                platform=platform,
                posts=len(indices),
                reused_posts=len(reused),
                groups=len(platform_groups),
                authors_involved=len(authors),
                min_similarity=min((s[0] for s in sims), default=0.0),
                max_similarity=max((s[1] for s in sims), default=0.0),
            )
        return per_platform, groups

    @staticmethod
    def _cross_market_sellers(postings: List[UndergroundRecord]) -> List[str]:
        markets_by_author: Dict[str, Set[str]] = {}
        for posting in postings:
            markets_by_author.setdefault(posting.author, set()).add(posting.market)
        return sorted(
            author for author, markets in markets_by_author.items() if len(markets) > 1
        )


__all__ = [
    "MarketStats",
    "PlatformReuse",
    "UndergroundAnalysis",
    "UndergroundReport",
]
