"""Scam infrastructure analysis: the domains behind scam posts.

Section 6's scam posts lure victims to external destinations (fake
claim pages, login-verification sites, giveaway drops).  This analysis
extracts every domain referenced in collected posts and measures how
the infrastructure is shared: a domain promoted by many distinct
accounts is campaign infrastructure, not a one-off — the same intuition
behind the spam-URL measurements the paper cites (Grier et al., Gao et
al.).
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.core.dataset import PostRecord

#: Bare domains as they appear in post text (scam lures rarely bother
#: with a scheme), plus full URLs.  No match starts right after a letter
#: or digit: such a start follows a failed start in the same word (and
#: fails the same way) or a match (which would have run on through it),
#: so the anchor spares the engine those retries and changes no domain.
_DOMAIN_RE = re.compile(
    r"(?<![a-z0-9])(?:https?://)?((?:[a-z0-9][a-z0-9-]*\.)+"
    r"(?:example|com|net|io|org|xyz|link|onion))(?:/\S*)?",
    re.IGNORECASE,
)

#: Domains that are destinations of the platforms themselves, not lures.
PLATFORM_DOMAINS = frozenset(
    {"x.example", "instagram.example", "facebook.example",
     "tiktok.example", "youtube.example"}
)


def extract_domains(text: str) -> List[str]:
    """Lowercased external domains mentioned in a post.

    >>> extract_domains("claim now at Secure-Claim-Now.example today")
    ['secure-claim-now.example']
    """
    found = []
    for match in _DOMAIN_RE.finditer(text):
        domain = match.group(1).lower()
        if domain not in PLATFORM_DOMAINS:
            found.append(domain)
    return found


@dataclass
class DomainProfile:
    """One lure domain's footprint across the collected posts."""

    domain: str
    posts: int
    accounts: int
    platforms: Tuple[str, ...]

    @property
    def is_shared_infrastructure(self) -> bool:
        """Promoted by several distinct accounts -> campaign, not one-off."""
        return self.accounts >= 3


@dataclass
class InfrastructureReport:
    posts_with_domains: int
    domains: List[DomainProfile] = field(default_factory=list)

    @property
    def total_domains(self) -> int:
        return len(self.domains)

    @property
    def shared_domains(self) -> List[DomainProfile]:
        return [d for d in self.domains if d.is_shared_infrastructure]

    def top_domains(self, n: int = 10) -> List[DomainProfile]:
        return sorted(self.domains, key=lambda d: (-d.accounts, d.domain))[:n]


class InfrastructureAnalysis:
    """Aggregates lure domains over a post corpus."""

    def run(self, posts: Sequence[PostRecord]) -> InfrastructureReport:
        post_counts: Counter = Counter()
        accounts: Dict[str, Set[Tuple[str, str]]] = {}
        platforms: Dict[str, Set[str]] = {}
        posts_with_domains = 0
        for post in posts:
            domains = set(extract_domains(post.text))
            if not domains:
                continue
            posts_with_domains += 1
            for domain in domains:
                post_counts[domain] += 1
                accounts.setdefault(domain, set()).add((post.platform, post.handle))
                platforms.setdefault(domain, set()).add(post.platform)
        profiles = [
            DomainProfile(
                domain=domain,
                posts=count,
                accounts=len(accounts[domain]),
                platforms=tuple(sorted(platforms[domain])),
            )
            for domain, count in sorted(post_counts.items())
        ]
        return InfrastructureReport(
            posts_with_domains=posts_with_domains,
            domains=profiles,
        )


__all__ = [
    "DomainProfile",
    "InfrastructureAnalysis",
    "InfrastructureReport",
    "extract_domains",
]
