"""The study-fidelity scorecard.

The paper audits its own measurement quality throughout (manual vetting
of 25 posts/cluster in §6, the visible-vs-total accounting of Table 2,
the §8 status sweep).  This module automates that audit for the
reproduction: at the end of every telemetry-enabled :class:`Study` run it
scores the pipeline's *outputs* against the synthetic world's
ground-truth labels (scam subtypes, network clusters, moderation fates,
underground reuse groups) and against the paper-shape calibration
targets (listing shares, price medians, Table 2/5/7/8 ratios).

The result is a :class:`Scorecard` — a flat list of named
:class:`ScoreEntry` rows, each with a value and an acceptance band —
written as ``scorecard.json`` into the telemetry directory and exposed
as ``fidelity_score{metric=...}`` gauges in the metrics registry, so
``repro diff`` and CI can gate on it.

Determinism: every score derives from the dataset and world (both
seed-deterministic) and floats are rounded before serialization, so two
same-seed runs produce byte-identical ``scorecard.json`` files.

The scorecard runs no analysis itself: it scores the reports of the
supervised suite (:func:`~repro.analysis.suite.run_analysis_suite`) its
caller already ran, so a degraded stage stays degraded here.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.obs.schemas import SCORECARD_SCHEMA
from repro.synthetic.calibration import (
    MARKETPLACE_TABLE1,
    PRICE_MEDIANS,
    TOTAL_LISTINGS,
    TOTAL_VISIBLE,
)
from repro.util.fileio import atomic_write_json
from repro.util.stats import median

SCORECARD_FILENAME = "scorecard.json"

#: Acceptance bands per score (low, high), inclusive.  Ground-truth
#: precision/recall scores cap at 1.0; calibration scores are measured
#: ratios with a band wide enough for small-scale sampling noise but
#: tight enough to catch a broken pipeline stage (see tests).
DEFAULT_THRESHOLDS: Dict[str, Tuple[float, float]] = {
    # -- ground truth -----------------------------------------------------
    "scam_account_precision": (0.60, 1.0),
    "scam_account_recall": (0.50, 1.0),
    "scam_post_precision": (0.60, 1.0),
    "scam_post_recall": (0.40, 1.0),
    "network_pair_precision": (0.80, 1.0),
    "network_pair_recall": (0.60, 1.0),
    "efficacy_precision": (0.95, 1.0),
    "efficacy_recall": (0.95, 1.0),
    "underground_reuse_precision": (0.60, 1.0),
    "underground_reuse_recall": (0.40, 1.0),
    # -- paper-shape calibration -----------------------------------------
    "calib_visible_listing_share": (0.18, 0.45),  # Table 2: ~0.30
    "calib_listing_share_l1": (0.0, 0.20),  # Table 1 marketplace shares
    "calib_scam_posts_per_account": (1.2, 12.0),  # Table 5: ~4.99
    "calib_clustered_account_fraction": (0.005, 0.30),  # Table 7: ~0.047
    "calib_efficacy_rate": (0.08, 0.40),  # Table 8: 0.1971
    "calib_price_median_ratio_facebook": (0.25, 4.0),
    "calib_price_median_ratio_instagram": (0.25, 4.0),
    "calib_price_median_ratio_tiktok": (0.25, 4.0),
    "calib_price_median_ratio_x": (0.25, 4.0),
    "calib_price_median_ratio_youtube": (0.25, 4.0),
    # -- data-plane coverage ----------------------------------------------
    #: Share of collected records that survived contract quarantine.
    "contract_record_coverage": (0.95, 1.0),
    #: Share of the nine analysis stages that produced a report — any
    #: degraded stage takes the scorecard out of band.
    "analysis_stage_coverage": (1.0, 1.0),
}


@dataclass(frozen=True)
class ScoreEntry:
    """One scorecard row: a named value inside an acceptance band."""

    name: str
    kind: str  # "ground_truth" | "calibration"
    value: float
    low: float
    high: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.low <= self.value <= self.high

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "value": round(self.value, 6),
            "low": self.low,
            "high": self.high,
            "passed": self.passed,
            "detail": self.detail,
        }


@dataclass
class Scorecard:
    """The full fidelity scorecard of one study run."""

    seed: int
    scale: float
    entries: List[ScoreEntry] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(entry.passed for entry in self.entries)

    def failures(self) -> List[ScoreEntry]:
        return [entry for entry in self.entries if not entry.passed]

    def entry(self, name: str) -> Optional[ScoreEntry]:
        for candidate in self.entries:
            if candidate.name == name:
                return candidate
        return None

    def to_dict(self) -> dict:
        return {
            "schema": SCORECARD_SCHEMA,
            "seed": self.seed,
            "scale": self.scale,
            "passed": self.passed,
            "n_entries": len(self.entries),
            "n_failed": len(self.failures()),
            "entries": [
                entry.to_dict()
                for entry in sorted(self.entries, key=lambda e: e.name)
            ],
        }

    def register_gauges(self, metrics) -> None:
        """Expose every entry as ``fidelity_score`` / ``fidelity_passed``
        gauges in a metrics registry (live or null)."""
        score = metrics.gauge(
            "fidelity_score", "scorecard value, by metric", labels=("metric",)
        )
        ok = metrics.gauge(
            "fidelity_passed", "1 when the scorecard metric is in band",
            labels=("metric",),
        )
        for entry in self.entries:
            score.set(round(entry.value, 6), metric=entry.name)
            ok.set(1.0 if entry.passed else 0.0, metric=entry.name)


# ---------------------------------------------------------------------------
# scoring primitives
# ---------------------------------------------------------------------------

def precision_recall(predicted: Set, truth: Set) -> Tuple[float, float]:
    """Set precision/recall with the usual empty-set conventions: an
    empty prediction set has perfect precision; an empty truth set has
    perfect recall."""
    hits = len(predicted & truth)
    precision = hits / len(predicted) if predicted else 1.0
    recall = hits / len(truth) if truth else 1.0
    return precision, recall


def _pair_set(membership: Dict[object, object]) -> Set[FrozenSet]:
    """All unordered pairs of keys that share a membership value."""
    groups: Dict[object, List[object]] = {}
    for key, group in membership.items():
        if group is not None:
            groups.setdefault(group, []).append(key)
    pairs: Set[FrozenSet] = set()
    for members in groups.values():
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                pairs.add(frozenset((a, b)))
    return pairs


# ---------------------------------------------------------------------------
# scorecard computation
# ---------------------------------------------------------------------------

def compute_scorecard(result, analyses) -> Scorecard:
    """Score a :class:`~repro.core.pipeline.StudyResult` against its own
    world's ground truth and the calibration targets.

    ``analyses`` is the supervised
    :class:`~repro.analysis.suite.AnalysisResults` of the same dataset.
    A stage it recorded as *failed* has no report, so its sections are
    skipped (degraded).
    """
    dataset = result.dataset
    world = result.world
    failed_stages: Set[str] = {f.stage for f in analyses.failures}
    scam = analyses.report("scam_posts")
    network = analyses.report("network")
    efficacy = analyses.report("efficacy")
    underground = analyses.report("underground")

    card = Scorecard(seed=world.seed, scale=world.scale)

    def add(name: str, kind: str, value: float, detail: str = "") -> None:
        low, high = DEFAULT_THRESHOLDS.get(name, (0.0, float("inf")))
        card.entries.append(
            ScoreEntry(name=name, kind=kind, value=float(value),
                       low=low, high=high, detail=detail)
        )

    accounts_by_key = {
        (a.platform.value, a.handle): a for a in world.accounts.values()
    }

    # -- scam vetting vs ground truth (§6) --------------------------------
    if scam is not None:
        collected_accounts = {(p.platform, p.handle) for p in dataset.posts}
        truth_scam_accounts = {
            key for key in collected_accounts
            if key in accounts_by_key and accounts_by_key[key].is_scammer
        }
        p, r = precision_recall(scam.predicted_accounts(), truth_scam_accounts)
        add("scam_account_precision", "ground_truth", p,
            f"{len(scam.predicted_accounts())} predicted vs "
            f"{len(truth_scam_accounts)} true scam accounts")
        add("scam_account_recall", "ground_truth", r)

        truth_subtype_by_id = {
            post.post_id: post.scam_subtype for post in world.all_posts()
        }
        collected_post_ids = {post.post_id for post in dataset.posts}
        truth_scam_posts = {
            pid for pid in collected_post_ids if truth_subtype_by_id.get(pid)
        }
        p, r = precision_recall(set(scam.scam_post_ids), truth_scam_posts)
        add("scam_post_precision", "ground_truth", p,
            f"{len(scam.scam_post_ids)} predicted vs "
            f"{len(truth_scam_posts)} true scam posts")
        add("scam_post_recall", "ground_truth", r)

    # -- network clustering vs ground truth (§7) --------------------------
    if network is not None:
        active_profiles = {
            (p.platform, p.handle) for p in dataset.profiles if p.is_active
        }
        truth_membership = {
            key: (key[0], accounts_by_key[key].cluster_id)
            for key in active_profiles
            if key in accounts_by_key and accounts_by_key[key].cluster_id
        }
        predicted_pairs = _pair_set(network.membership())
        truth_pairs = _pair_set(truth_membership)
        p, r = precision_recall(predicted_pairs, truth_pairs)
        add("network_pair_precision", "ground_truth", p,
            f"{len(predicted_pairs)} predicted vs {len(truth_pairs)} true "
            "same-cluster pairs")
        add("network_pair_recall", "ground_truth", r)

    # -- moderation sweep vs ground truth (§8) ----------------------------
    if efficacy is not None:
        swept = {(p.platform, p.handle) for p in dataset.profiles}
        truth_inactive = {
            key for key in swept
            if key in accounts_by_key and not accounts_by_key[key].is_active
        }
        p, r = precision_recall(efficacy.predicted_inactive, truth_inactive)
        add("efficacy_precision", "ground_truth", p,
            f"{len(efficacy.predicted_inactive)} predicted vs "
            f"{len(truth_inactive)} truly actioned accounts")
        add("efficacy_recall", "ground_truth", r)

    # -- underground text reuse vs ground truth (§4.2) --------------------
    if underground is not None and dataset.underground:
        truth_reuse = {
            posting.posting_id: posting.reuse_group
            for posting in world.underground_postings
        }
        record_ids = [
            record.url.rstrip("/").rsplit("/", 1)[-1]
            for record in dataset.underground
        ]
        predicted_membership = {}
        for group_index, group in enumerate(underground.groups):
            for index in group.indices:
                if index < len(record_ids):
                    predicted_membership[record_ids[index]] = group_index
        truth_membership_ug = {
            pid: truth_reuse.get(pid) for pid in record_ids
        }
        p, r = precision_recall(
            _pair_set(predicted_membership), _pair_set(truth_membership_ug)
        )
        add("underground_reuse_precision", "ground_truth", p,
            f"{len(underground.groups)} predicted reuse groups")
        add("underground_reuse_recall", "ground_truth", r)

    # -- calibration shape checks -----------------------------------------
    _add_calibration_entries(add, dataset, scam, network, efficacy)

    # -- data-plane coverage ----------------------------------------------
    contracts = getattr(result, "contracts", None)
    if contracts is not None:
        add("contract_record_coverage", "coverage", contracts.coverage(),
            f"{contracts.quarantined} of {contracts.checked_total} "
            "collected records quarantined")
    add("analysis_stage_coverage", "coverage", analyses.coverage(),
        f"{analyses.succeeded}/{len(analyses.reports)} stages reported"
        + ("" if not failed_stages
           else "; degraded: " + ", ".join(sorted(failed_stages))))
    return card


def _add_calibration_entries(add, dataset, scam, network, efficacy) -> None:
    # Table 2: share of listings exposing a profile link (~30%).
    if dataset.listings:
        add("calib_visible_listing_share", "calibration",
            len(dataset.visible_listings()) / len(dataset.listings),
            f"paper: {TOTAL_VISIBLE}/{TOTAL_LISTINGS} = "
            f"{TOTAL_VISIBLE / TOTAL_LISTINGS:.3f}")

    # Table 1: per-marketplace listing shares (L1 / total-variation gap).
    by_market = dataset.listings_by_marketplace()
    total = sum(len(records) for records in by_market.values())
    paper_total = sum(n for _s, n in MARKETPLACE_TABLE1.values())
    if total:
        gap = sum(
            abs(len(by_market.get(market, [])) / total - listings / paper_total)
            for market, (_sellers, listings) in MARKETPLACE_TABLE1.items()
        ) / 2.0
        add("calib_listing_share_l1", "calibration", gap,
            "total-variation distance to Table 1 shares")

    # Table 5: posts per scam account (~4.99 at paper scale).
    if scam is not None and scam.total_scam_accounts:
        add("calib_scam_posts_per_account", "calibration",
            scam.total_scam_posts / scam.total_scam_accounts,
            "paper: 18792/3769 = 4.99")

    # Table 7: fraction of active profiles inside a network cluster.
    if network is not None:
        clustered_total = (
            network.total_cluster_accounts + network.total_singletons
        )
        if clustered_total:
            add("calib_clustered_account_fraction", "calibration",
                network.total_cluster_accounts / clustered_total,
                "paper: 543/11457 = 0.047")

    # Table 8: overall share of visible accounts actioned (~19.7%).
    if efficacy is not None and efficacy.total_visible:
        add("calib_efficacy_rate", "calibration",
            efficacy.total_inactive / efficacy.total_visible,
            "paper: 0.1971")

    # §4.1: advertised price medians per platform.
    prices_by_platform: Dict[str, List[float]] = {}
    for listing in dataset.listings:
        if listing.platform and listing.price_usd is not None:
            prices_by_platform.setdefault(listing.platform, []).append(
                listing.price_usd
            )
    for platform, paper_median in PRICE_MEDIANS.items():
        prices = prices_by_platform.get(platform)
        if not prices:
            continue
        measured = median(prices)
        add(f"calib_price_median_ratio_{platform.lower()}", "calibration",
            measured / paper_median,
            f"measured ${measured:,.0f} vs paper ${paper_median:,.0f}")


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def write_scorecard(directory: str, scorecard: Scorecard) -> str:
    """Write ``scorecard.json`` (byte-identical across same-seed runs)."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, SCORECARD_FILENAME)
    return atomic_write_json(path, scorecard.to_dict(), trailing_newline=True)


def load_scorecard(directory: str) -> Optional[dict]:
    """The scorecard dict from a telemetry directory, or None."""
    path = os.path.join(directory, SCORECARD_FILENAME)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


__all__ = [
    "DEFAULT_THRESHOLDS",
    "SCORECARD_FILENAME",
    "SCORECARD_SCHEMA",
    "ScoreEntry",
    "Scorecard",
    "compute_scorecard",
    "load_scorecard",
    "precision_recall",
    "write_scorecard",
]
