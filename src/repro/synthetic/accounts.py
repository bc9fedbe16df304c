"""Generation of the visible social media accounts.

Reproduces the Section 5 marginals: creation-date mixture (Figure 4),
follower distributions (Table 4), locations, affiliated categories,
account types; plus the ground truth for the Section 6 scam roles
(Table 5), Section 7 attribute clusters (Table 7), and Section 8 fates
(Table 8).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.synthetic import calibration as cal
from repro.synthetic.categories import affiliated_categories
from repro.synthetic.countries import COUNTRIES, PROFILE_LOCATION_HEAD
from repro.synthetic.model import AccountFate, AccountType, Platform, SocialAccount
from repro.synthetic.names import NameForge
from repro.synthetic.scamtext import SCAM_CATEGORY_TREE
from repro.util.rng import RngTree, ZipfTable
from repro.util.simtime import SimDate

#: Profile-description templates; cluster members share one instance
#: (Figure 5 shows such shared boilerplate descriptions).
_PROFILE_BIO_TEMPLATES = [
    "Daily {topic} content for true fans, follow for more",
    "The home of {topic}, new posts every day, DM for promos",
    "{topic} page run with love, turn on notifications",
    "Best {topic} community online, join {count} followers",
    "Official {topic} hub, business inquiries in bio",
]

#: Figure-5-style descriptions used for coordinated cluster accounts.
_CLUSTER_BIO_TEMPLATES = [
    "We harvest {count} accounts each with 100K followers ready to go, "
    "contact us on telegram {telegram} for bulk orders",
    "Free NFT giveaways every week for our community, join the drop and "
    "invite friends, links in pinned post",
    "High quality profiles for your business or promotion, established "
    "pages with real audience, message {telegram}",
]

_TOPICS = [
    "memes", "luxury", "fashion", "gaming", "travel", "food", "fitness",
    "beauty", "pets", "crypto", "cars", "music", "art", "sports", "tech",
]


def _creation_date(platform: Platform, rng: RngTree) -> SimDate:
    """Sample a creation date per the Figure-4 mixture."""
    floor_year = cal.CREATION_YEAR_FLOOR[platform.value]
    if rng.bernoulli(cal.CREATION_PRE2020_FRACTION):
        if platform is Platform.YOUTUBE and rng.bernoulli(
            cal.YOUTUBE_2006_2010_FRACTION / cal.CREATION_PRE2020_FRACTION
        ):
            year = rng.randint(2006, 2010)
        else:
            year = rng.randint(max(floor_year, 2011 if platform is Platform.YOUTUBE else floor_year), 2019)
        return SimDate.of(year, rng.randint(1, 12), rng.randint(1, 28))
    # Recent: the 3.5-year window ending at the study (Dec 2020 – May 2024).
    start = SimDate.of(2020, 12, 1)
    end = SimDate.of(2024, 5, 31)
    offset = rng.randint(0, start.days_until(end))
    return start.plus_days(offset)


def _followers(platform: Platform, rng: RngTree) -> int:
    """Sample follower counts per the Table-4 per-platform shape."""
    minimum, med, maximum = cal.VISIBLE_FOLLOWERS[platform.value]
    if med <= 1:
        # TikTok: median 1 follower — fresh farm accounts.  Mostly 0-3
        # followers with a thin tail up to the observed max.
        if rng.bernoulli(0.85):
            return rng.randint(0, 3)
        return min(maximum, rng.pareto_int(4, alpha=0.9, cap=maximum))
    sigma = min(2.0, math.log(max(maximum / max(med, 1), 2.0)) / 3.0)
    value = int(rng.lognormal(med, sigma))
    return max(minimum, min(maximum, value))


def _scam_subtype_weights() -> Tuple[List[str], List[float]]:
    subtypes: List[str] = []
    weights: List[float] = []
    for category in SCAM_CATEGORY_TREE:
        for subtype in SCAM_CATEGORY_TREE[category]:
            accounts, _posts = _taxonomy_entry(category, subtype)
            subtypes.append(subtype)
            weights.append(float(accounts))
    return subtypes, weights


def _taxonomy_entry(category: str, subtype: str) -> Tuple[int, int]:
    return cal.SCAM_TAXONOMY[category][subtype]


class AccountFactory:
    """Builds the visible-account population for one platform."""

    def __init__(self, rng: RngTree, forge: NameForge) -> None:
        self._rng = rng
        self._forge = forge
        self._affiliated = affiliated_categories(cal.AFFILIATED_CATEGORY_UNIQUE)
        self._subtypes, self._subtype_weights = _scam_subtype_weights()
        self._counter = 0

    # -- single account -------------------------------------------------------

    def _next_id(self, platform: Platform) -> str:
        self._counter += 1
        return f"{platform.value.lower()}-{self._counter:06d}"

    def build_account(self, platform: Platform, trend: Optional[str]) -> SocialAccount:
        rng = self._rng
        handle = self._forge.handle(trend)
        topic = rng.choice(_TOPICS)
        # The trailing handle keeps ordinary bios unique so only deliberate
        # cluster members share a biography (Table 7 clusters on it).
        bio = rng.choice(_PROFILE_BIO_TEMPLATES).format(
            topic=topic, count=f"{rng.randint(1, 900)}K"
        ) + f" | @{handle}"
        account = SocialAccount(
            account_id=self._next_id(platform),
            platform=platform,
            handle=handle,
            display_name=self._forge.display_name(trend),
            description=bio,
            created=_creation_date(platform, rng),
            followers=_followers(platform, rng),
        )
        if rng.bernoulli(0.35):
            account.email = self._forge.email(handle)
        if rng.bernoulli(0.15):
            account.phone = self._forge.phone()
        if rng.bernoulli(0.2):
            account.website = self._forge.website(handle)
        return account

    # -- population ------------------------------------------------------------

    def build_platform_population(self, platform: Platform, count: int) -> List[SocialAccount]:
        """Generate ``count`` visible accounts with all Section-5 attributes."""
        rng = self._rng
        accounts: List[SocialAccount] = []
        trend_fraction = 0.22  # share of accounts carrying a trending token
        for _ in range(count):
            trend = (
                rng.choice(list(cal.TRENDING_BLOCK_TOKENS))
                if rng.bernoulli(trend_fraction)
                else None
            )
            accounts.append(self.build_account(platform, trend))
        if not accounts:
            return accounts
        self._pin_follower_extremes(platform, accounts)
        self._assign_locations(accounts)
        self._assign_affiliated_categories(accounts)
        self._assign_account_types(accounts)
        return accounts

    def _pin_follower_extremes(self, platform: Platform, accounts: List[SocialAccount]) -> None:
        """Force the Table-4 min and max follower values to exist."""
        minimum, _med, maximum = cal.VISIBLE_FOLLOWERS[platform.value]
        accounts[0].followers = minimum
        if len(accounts) > 1:
            accounts[-1].followers = maximum

    def _assign_locations(self, accounts: List[SocialAccount]) -> None:
        """~28% of visible profiles list a location (Section 5)."""
        rng = self._rng
        fraction = cal.PROFILE_LOCATION_COUNT / cal.TOTAL_VISIBLE
        head = PROFILE_LOCATION_HEAD
        head_weights = [float(c) for _n, c in cal.PROFILE_TOP_LOCATIONS]
        tail = [c for c in COUNTRIES if c not in head][: cal.PROFILE_LOCATION_UNIQUE - len(head)]
        head_share = sum(head_weights) / cal.PROFILE_LOCATION_COUNT
        tail_zipf = ZipfTable(len(tail), s=0.7)
        for account in accounts:
            if not rng.bernoulli(fraction):
                continue
            if rng.bernoulli(head_share):
                account.location = rng.weighted_choice(head, head_weights)
            else:
                account.location = tail[rng.zipf_index(tail_zipf)]

    def _assign_affiliated_categories(self, accounts: List[SocialAccount]) -> None:
        """~10% of profiles carry a platform-assigned category (Section 5)."""
        rng = self._rng
        fraction = cal.AFFILIATED_CATEGORY_ACCOUNTS / cal.TOTAL_VISIBLE
        head = [name for name, _c in cal.AFFILIATED_TOP_CATEGORIES]
        head_weights = [float(c) for _n, c in cal.AFFILIATED_TOP_CATEGORIES]
        tail = [c for c in self._affiliated if c not in head]
        head_share = sum(head_weights) / cal.AFFILIATED_CATEGORY_ACCOUNTS
        tail_zipf = ZipfTable(len(tail), s=0.7)
        for account in accounts:
            if not rng.bernoulli(fraction):
                continue
            if rng.bernoulli(head_share):
                account.affiliated_category = rng.weighted_choice(head, head_weights)
            else:
                account.affiliated_category = tail[rng.zipf_index(tail_zipf)]

    def _assign_account_types(self, accounts: List[SocialAccount]) -> None:
        """Business / verified / private / protected minorities (Section 5)."""
        rng = self._rng
        type_fractions = {
            AccountType.BUSINESS: cal.ACCOUNT_TYPE_COUNTS["business"] / cal.TOTAL_VISIBLE,
            AccountType.VERIFIED: cal.ACCOUNT_TYPE_COUNTS["verified"] / cal.TOTAL_VISIBLE,
            AccountType.PRIVATE: cal.ACCOUNT_TYPE_COUNTS["private"] / cal.TOTAL_VISIBLE,
            AccountType.PROTECTED: cal.ACCOUNT_TYPE_COUNTS["protected"] / cal.TOTAL_VISIBLE,
        }
        for account in accounts:
            for account_type, fraction in type_fractions.items():
                if rng.bernoulli(fraction):
                    account.account_type = account_type
                    break

    # -- scam roles ---------------------------------------------------------------

    def assign_scam_roles(self, accounts: Sequence[SocialAccount], scam_count: int) -> None:
        """Mark ``scam_count`` accounts as scammers with Table-6 subtypes."""
        rng = self._rng
        if scam_count > len(accounts):
            scam_count = len(accounts)
        chosen = rng.sample(list(accounts), scam_count)
        for account in chosen:
            n_subtypes = rng.weighted_choice([1, 2, 3], [0.65, 0.25, 0.10])
            subtypes: List[str] = []
            for _ in range(n_subtypes):
                subtype = rng.weighted_choice(self._subtypes, self._subtype_weights)
                if subtype not in subtypes:
                    subtypes.append(subtype)
            account.scam_subtypes = tuple(subtypes)

    # -- network clusters (Table 7) -------------------------------------------------

    def build_clusters(self, platform: Platform, accounts: Sequence[SocialAccount],
                       cluster_count: int, clustered_accounts: int,
                       max_size: int) -> int:
        """Group accounts into attribute-sharing clusters per Table 7.

        Returns the number of clusters actually formed.  Cluster members
        share the platform's clustering attribute: TikTok description,
        YouTube name, Instagram biography, Facebook contact info, X
        name/description.
        """
        rng = self._rng
        pool = [a for a in accounts if a.cluster_id is None]
        if cluster_count <= 0 or clustered_accounts < 2 * cluster_count or len(pool) < 2:
            return 0
        sizes = self._cluster_sizes(cluster_count, clustered_accounts, max_size)
        formed = 0
        for size in sizes:
            if len(pool) < size:
                break
            members = [pool.pop(rng.randint(0, len(pool) - 1)) for _ in range(size)]
            cluster_id = f"{platform.value.lower()}-cluster-{formed + 1:03d}"
            self._share_attributes(platform, members, cluster_id)
            formed += 1
        return formed

    def _cluster_sizes(self, cluster_count: int, total: int, max_size: int) -> List[int]:
        """Mostly-2 sizes with one max-size cluster (Table 7: median 2)."""
        sizes = [2] * cluster_count
        remainder = total - 2 * cluster_count
        if remainder > 0 and cluster_count > 0:
            grow = min(remainder, max_size - 2)
            sizes[0] += grow
            remainder -= grow
            index = 1
            while remainder > 0 and index < cluster_count:
                grow = min(remainder, max(0, max_size - 2), 2)
                if grow == 0:
                    break
                sizes[index] += grow
                remainder -= grow
                index += 1
        return sizes

    def _share_attributes(self, platform: Platform, members: List[SocialAccount],
                          cluster_id: str) -> None:
        rng = self._rng
        telegram = self._forge.telegram()
        shared_bio = rng.choice(_CLUSTER_BIO_TEMPLATES).format(
            count=f"{rng.randint(1, 5)}K", telegram=telegram
        )
        shared_name = self._forge.display_name()
        shared_email = self._forge.email(members[0].handle)
        shared_phone = self._forge.phone()
        shared_site = self._forge.website(members[0].handle)
        x_shares_name = rng.bernoulli(0.5)  # per-cluster choice for X
        for member in members:
            member.cluster_id = cluster_id
            if platform in (Platform.TIKTOK, Platform.INSTAGRAM):
                member.description = shared_bio
            elif platform is Platform.YOUTUBE:
                member.display_name = shared_name
            elif platform is Platform.FACEBOOK:
                choice = rng.randint(0, 2)
                member.email = shared_email
                if choice >= 1:
                    member.phone = shared_phone
                if choice == 2:
                    member.website = shared_site
            else:  # X clusters on name/description (whole cluster shares one)
                if x_shares_name:
                    member.display_name = shared_name
                else:
                    member.description = shared_bio


__all__ = ["AccountFactory"]
