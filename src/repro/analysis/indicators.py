"""Proactive-detection indicators (Section 9's recommendations, realized).

The paper closes by proposing that platforms could identify traded
accounts proactively: monitor marketplace referrals, watch for preemptive
profile tailoring, flag engagement-farming signatures, and track the
scam-content patterns in Section 6.  This module turns those
recommendations into a concrete, evaluable engine:

* ``marketplace_referral`` — the account is reachable from a marketplace
  listing (the crawler observed the link; a platform would observe the
  referral header the paper suggests monitoring);
* ``trending_name`` — the handle/name carries the trend tokens Section 8
  found over-represented among blocked accounts;
* ``follower_anomaly`` — harvested-audience signature: a large audience
  with an (almost) empty timeline, or a fresh account that already has a
  big following;
* ``scam_content`` — at least one post matches a Table-6 subtype's
  indicator codebook;
* ``coordinated_cluster`` — the profile shares identity attributes with
  other profiles (Table 7's clusters).

``evaluate`` scores the engine against the synthetic world's ground
truth, which is how the repository quantifies the headline of Section 8:
platforms actioned only 19.7 % of traded accounts, while these cheap
indicators recover far more at high precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.efficacy import TREND_TOKENS
from repro.analysis.network import NetworkReport
from repro.analysis.scam_posts import CODEBOOK_INDICATORS, SUBTYPE_MASKS
from repro.core.dataset import MeasurementDataset, PostRecord, ProfileRecord
from repro.nlp.tokenize import TokenStream
from repro.util.simtime import STUDY_START, SimDate

#: Indicator weights; referral evidence is near-conclusive, the
#: behavioural signals are supporting evidence.
WEIGHTS: Dict[str, float] = {
    "marketplace_referral": 1.0,
    "trending_name": 0.35,
    "follower_anomaly": 0.5,
    "scam_content": 0.9,
    "coordinated_cluster": 0.7,
}


#: Indicator -> the bits of the codebook entries that are exactly it.
_ENTRY_BITS: Dict[str, int] = {
    indicator: sum(1 << bit for bit, entry in enumerate(CODEBOOK_INDICATORS)
                   if entry == indicator)
    for indicator in CODEBOOK_INDICATORS
}


@dataclass
class IndicatorHit:
    """One indicator firing on one profile."""

    name: str
    weight: float
    detail: str


@dataclass
class ProfileRisk:
    """The engine's verdict on one profile."""

    handle: str
    platform: str
    hits: List[IndicatorHit] = field(default_factory=list)

    @property
    def score(self) -> float:
        return sum(hit.weight for hit in self.hits)

    @property
    def indicator_names(self) -> Set[str]:
        return {hit.name for hit in self.hits}


@dataclass
class IndicatorEvaluation:
    """Precision/recall of flagging vs the ground-truth traded set."""

    threshold: float
    flagged: int
    true_positives: int
    relevant: int

    @property
    def precision(self) -> float:
        return self.true_positives / self.flagged if self.flagged else 0.0

    @property
    def recall(self) -> float:
        return self.true_positives / self.relevant if self.relevant else 0.0


class IndicatorEngine:
    """Scores profiles with the Section-9 indicator set."""

    def __init__(self, enabled: Optional[Iterable[str]] = None) -> None:
        self.enabled = set(enabled) if enabled is not None else set(WEIGHTS)
        unknown = self.enabled - set(WEIGHTS)
        if unknown:
            raise ValueError(f"unknown indicators: {sorted(unknown)}")

    # -- scoring ---------------------------------------------------------

    def score_dataset(self, dataset: MeasurementDataset,
                      network: Optional[NetworkReport] = None,
                      stream: Optional[TokenStream] = None) -> List[ProfileRisk]:
        """Score every collected profile; ``stream`` (a new one when
        ``None``) tokenizes each post text it has not seen."""
        if stream is None:
            stream = TokenStream()
        referred = {
            listing.profile_url
            for listing in dataset.listings
            if listing.profile_url
        }
        posts_by_profile: Dict[Tuple[str, str], List[PostRecord]] = {}
        for post in dataset.posts:
            posts_by_profile.setdefault((post.platform, post.handle), []).append(post)
        clustered: Set[Tuple[str, str]] = set()
        if network is not None:
            for cluster in network.clusters:
                for member in cluster.members:
                    clustered.add((member.platform, member.handle))
        risks = []
        for profile in dataset.profiles:
            key = (profile.platform, profile.handle)
            risks.append(
                self.score_profile(
                    profile,
                    posts_by_profile.get(key, []),
                    referred=profile.profile_url in referred,
                    clustered=key in clustered,
                    stream=stream,
                )
            )
        return risks

    def score_profile(self, profile: ProfileRecord, posts: Sequence[PostRecord],
                      referred: bool, clustered: bool,
                      stream: Optional[TokenStream] = None) -> ProfileRisk:
        risk = ProfileRisk(handle=profile.handle, platform=profile.platform)
        if referred:
            self._hit(risk, "marketplace_referral",
                      "profile linked from a marketplace listing")
        self._check_trending_name(risk, profile)
        self._check_follower_anomaly(risk, profile, posts)
        self._check_scam_content(risk, posts,
                                 TokenStream() if stream is None else stream)
        if clustered:
            self._hit(risk, "coordinated_cluster",
                      "shares identity attributes with other profiles")
        return risk

    # -- individual indicators -----------------------------------------------

    def _hit(self, risk: ProfileRisk, name: str, detail: str) -> None:
        if name in self.enabled:
            risk.hits.append(IndicatorHit(name, WEIGHTS[name], detail))

    def _check_trending_name(self, risk: ProfileRisk, profile: ProfileRecord) -> None:
        blob = f"{profile.handle} {profile.name or ''}".lower()
        matched = [token for token in TREND_TOKENS if token in blob]
        if matched:
            self._hit(risk, "trending_name", f"trend tokens in name: {matched}")

    def _check_follower_anomaly(self, risk: ProfileRisk, profile: ProfileRecord,
                                posts: Sequence[PostRecord]) -> None:
        followers = profile.followers or 0
        if followers >= 5000 and len(posts) == 0:
            self._hit(risk, "follower_anomaly",
                      f"{followers:,} followers with an empty timeline")
            return
        if profile.created and followers >= 20_000:
            created = SimDate.parse(profile.created)
            age_days = created.days_until(STUDY_START)
            if 0 <= age_days < 365:
                self._hit(risk, "follower_anomaly",
                          f"{followers:,} followers on a {age_days}-day-old account")

    def _check_scam_content(self, risk: ProfileRisk,
                            posts: Sequence[PostRecord],
                            stream: TokenStream) -> None:
        """Fires on the first post whose words hold three or more of
        one subtype's indicators: a post's hit count for a subtype is the
        number of that subtype's codebook bits its words set."""
        tokens = stream.tokens
        for post in posts:
            mask = 0
            for word in set(stream.ids(stream.row(post.text), handles=False)):
                mask |= _ENTRY_BITS.get(tokens[word], 0)
            if not mask:
                continue
            for subtype, subtype_mask in SUBTYPE_MASKS.items():
                # bin().count rather than int.bit_count, which needs 3.10.
                if bin(mask & subtype_mask).count("1") >= 3:
                    self._hit(risk, "scam_content",
                              f"post matches '{subtype}' indicators")
                    return

    # -- evaluation -----------------------------------------------------------------

    @staticmethod
    def evaluate(risks: Sequence[ProfileRisk],
                 traded_handles: Set[Tuple[str, str]],
                 threshold: float) -> IndicatorEvaluation:
        """Score flagging (score >= threshold) against a ground-truth set."""
        flagged = [r for r in risks if r.score >= threshold]
        true_positives = sum(
            1 for r in flagged if (r.platform, r.handle) in traded_handles
        )
        return IndicatorEvaluation(
            threshold=threshold,
            flagged=len(flagged),
            true_positives=true_positives,
            relevant=len(traded_handles),
        )

    @staticmethod
    def sweep(risks: Sequence[ProfileRisk],
              traded_handles: Set[Tuple[str, str]],
              thresholds: Sequence[float]) -> List[IndicatorEvaluation]:
        return [
            IndicatorEngine.evaluate(risks, traded_handles, threshold)
            for threshold in thresholds
        ]


__all__ = [
    "IndicatorEngine",
    "IndicatorEvaluation",
    "IndicatorHit",
    "ProfileRisk",
    "WEIGHTS",
]
