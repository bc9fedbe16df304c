"""Section 6: scam post analysis (Tables 5 and 6).

The pipeline mirrors the paper's technical setup stage for stage:

1. language filter (CLD2 -> :class:`~repro.nlp.langdetect.LanguageDetector`);
2. embeddings (all-mpnet-base-v2 -> hashed TF-IDF);
3. reduction (UMAP -> none: the 192-dim embeddings are clustered as is);
4. clustering (HDBSCAN -> DBSCAN or the scalable density clusterer);
5. keywords (KeyBERT -> class-based TF-IDF);
6. vetting (manual 25-post review -> :class:`ClusterVetter` with the
   codebook distilled from the paper's six scam types).

Outputs reproduce Table 5 (scam accounts/posts per platform) and Table 6
(accounts/posts per category and subtype).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.dataset import MeasurementDataset, PostRecord
from repro.nlp.cluster import DBSCAN, ScalableDensityClusterer, cluster_stats
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.nlp.embeddings import HashedTfidfEmbedder
from repro.nlp.keywords import class_tfidf_keywords
from repro.nlp.langdetect import LanguageDetector
from repro.nlp.tokenize import Documents, TokenStream
from repro.synthetic.scamtext import SUBTYPE_TO_CATEGORY, VETTING_CODEBOOK
from repro.util.rng import RngTree


#: Hashed TF-IDF embedding width.
EMBEDDING_DIMS = 192
#: Exact DBSCAN's neighbourhood radius and core size (corpora up to
#: ``large_corpus_threshold`` posts).
DBSCAN_EPS = 0.9
DBSCAN_MIN_SAMPLES = 5
#: The scalable density clusterer's settings (larger corpora).
MERGE_EPS = 0.4
MIN_CLUSTER_SIZE = 6
KMEANS_MAX_K = 512
REFINE_MIN = 24
REFINE_DIVISOR = 12
#: Posts sampled per cluster for vetting (the paper used 25).
VETTING_SAMPLE = 25
#: A cluster is scam-labeled when at least this fraction of sampled
#: posts match a scam subtype's indicators.
VETTING_THRESHOLD = 0.5
#: Seed of the k-means seeding and of the vetting samples.
SEED = 7


@dataclass(frozen=True)
class ScamPipelineConfig:
    """Where the pipeline switches clusterers."""

    #: Corpora above this size use the scalable density clusterer (with a
    #: refinement pass) instead of exact DBSCAN.
    large_corpus_threshold: int = 12_000


@dataclass
class ClusterVerdict:
    """Vetting outcome for one cluster."""

    cluster_id: int
    size: int
    keywords: List[Tuple[str, float]]
    subtype: Optional[str]  # None = not scam
    category: Optional[str]
    match_score: float

    @property
    def is_scam(self) -> bool:
        return self.subtype is not None


@dataclass
class ScamReport:
    """Tables 5 and 6 plus pipeline bookkeeping."""

    posts_considered: int
    posts_english: int
    n_clusters: int
    n_noise: int
    verdicts: List[ClusterVerdict]
    #: Table 5: platform -> (scam accounts, scam posts).
    table5: Dict[str, Tuple[int, int]]
    #: Table 6: category -> subtype -> (accounts, posts).
    table6: Dict[str, Dict[str, Tuple[int, int]]]
    total_scam_accounts: int
    total_scam_posts: int
    #: (platform, handle) pairs flagged as scam accounts.
    scam_accounts: Set[Tuple[str, str]] = field(default_factory=set)
    #: indices (into the English corpus) of scam posts with their subtype.
    scam_post_subtypes: Dict[int, str] = field(default_factory=dict)
    #: post_id -> predicted subtype, for scoring against ground truth.
    scam_post_ids: Dict[str, str] = field(default_factory=dict)

    @property
    def scam_clusters(self) -> int:
        return sum(1 for v in self.verdicts if v.is_scam)

    def predicted_accounts(self) -> Set[Tuple[str, str]]:
        """The (platform, handle) pairs the pipeline labelled as scam."""
        return set(self.scam_accounts)


def _codebook_bits() -> Tuple[Tuple[str, ...], Dict[str, int]]:
    indicators: List[str] = []
    masks: Dict[str, int] = {}
    for subtype, entries in VETTING_CODEBOOK.items():
        first = len(indicators)
        indicators.extend(entries)
        masks[subtype] = (1 << len(indicators)) - (1 << first)
    return tuple(indicators), masks


#: Every (subtype, indicator) entry of the codebook, in order, and each
#: subtype's mask: entry ``i`` owns bit ``i`` of a post's mask.
CODEBOOK_INDICATORS, SUBTYPE_MASKS = _codebook_bits()


def _matches_indicator(token: str, indicator: str) -> bool:
    """Whether a token counts as an indicator keyword, with light
    stemming: either is a prefix of the other (so 'investment' matches
    'invest', 'nfts' matches 'nft'), but only an indicator of at least
    four letters matches a longer token, and only a token of at least
    four letters matches a longer indicator."""
    if token == indicator:
        return True
    return len(indicator) >= 4 and (
        token.startswith(indicator)
        or (len(token) >= 4 and indicator.startswith(token))
    )


class ClusterVetter:
    """The programmatic stand-in for manual cluster review.

    For each cluster, sample ``VETTING_SAMPLE`` posts and score every
    scam subtype in the codebook: a sampled post "matches" a subtype when
    it contains at least two of that subtype's indicator keywords.  The
    best-scoring subtype above the threshold labels the cluster.

    A token maps, once, to the bits of the codebook entries it matches
    (``CODEBOOK_INDICATORS``); a post's mask is the OR over its words,
    and the post's hit count for a subtype is the number of that
    subtype's bits set in it.  A mask maps, once, to the subtypes it hits
    at least twice.
    """

    def __init__(self) -> None:
        self._rng = RngTree(SEED, name="vetter")
        self._token_bits: Dict[str, int] = {}
        self._matched: Dict[int, List[str]] = {}

    def vet(
        self,
        docs: Documents,
        labels: np.ndarray,
        keywords: Dict[int, List[Tuple[str, float]]],
    ) -> List[ClusterVerdict]:
        """One verdict per cluster label, in label order; ``docs`` are
        the posts' words."""
        members_by_label: Dict[int, List[int]] = {}
        for index, label in enumerate(labels):
            if label >= 0:
                members_by_label.setdefault(int(label), []).append(index)
        verdicts: List[ClusterVerdict] = []
        for label in sorted(members_by_label):
            member_indices = members_by_label[label]
            sample_size = min(VETTING_SAMPLE, len(member_indices))
            sample = self._rng.child(f"cluster-{label}").sample(
                member_indices, sample_size
            )
            subtype, score = self._score_sample([
                self._post_mask(docs[i], docs.stream.tokens) for i in sample])
            verdicts.append(
                ClusterVerdict(
                    cluster_id=label,
                    size=len(member_indices),
                    keywords=keywords.get(label, []),
                    subtype=subtype,
                    category=SUBTYPE_TO_CATEGORY.get(subtype) if subtype else None,
                    match_score=score,
                )
            )
        return verdicts

    def _post_mask(self, words: Sequence[int], tokens: Sequence[str]) -> int:
        """The codebook bits a post's words match; ``tokens`` spells
        the word ids."""
        token_bits = self._token_bits
        mask = 0
        for word in set(words):
            token = tokens[word]
            bits = token_bits.get(token)
            if bits is None:
                bits = token_bits[token] = sum(
                    1 << bit for bit, indicator in enumerate(CODEBOOK_INDICATORS)
                    if _matches_indicator(token, indicator)
                )
            mask |= bits
        return mask

    def _score_sample(self, masks: List[int]) -> Tuple[Optional[str], float]:
        """The best subtype for a sample of post masks, and its score."""
        matches: Counter = Counter()
        for mask in masks:
            matched = self._matched.get(mask)
            if matched is None:
                # bin().count rather than int.bit_count, which needs 3.10.
                matched = self._matched[mask] = [
                    subtype for subtype, subtype_mask in SUBTYPE_MASKS.items()
                    if bin(mask & subtype_mask).count("1") >= 2
                ]
            matches.update(matched)
        scores = {subtype: matches[subtype] / max(1, len(masks))
                  for subtype in SUBTYPE_MASKS}
        best_subtype = max(scores, key=lambda s: (scores[s], s))
        best = scores[best_subtype]
        if best >= VETTING_THRESHOLD:
            return best_subtype, best
        return None, best


class ScamPostAnalysis:
    """Runs the full Section-6 pipeline over collected posts."""

    def __init__(self, config: Optional[ScamPipelineConfig] = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.config = config or ScamPipelineConfig()
        self.telemetry = telemetry or NULL_TELEMETRY
        self._detector = LanguageDetector()

    def run(self, dataset: MeasurementDataset,
            stream: Optional[TokenStream] = None) -> ScamReport:
        return self.run_posts(dataset.posts, stream)

    def run_posts(self, posts: Sequence[PostRecord],
                  stream: Optional[TokenStream] = None) -> ScamReport:
        """The pipeline over ``posts``; ``stream`` (a new one when
        ``None``) tokenizes each English text it has not seen."""
        tracer = self.telemetry.tracer
        with tracer.span("nlp.language_filter", n_posts=len(posts)):
            languages = self._detector.detect_all([p.text for p in posts])
            english = [p for p, lang in zip(posts, languages) if lang == "en"]
        if not english:
            return ScamReport(
                posts_considered=len(posts), posts_english=0, n_clusters=0,
                n_noise=0, verdicts=[], table5={}, table6={},
                total_scam_accounts=0, total_scam_posts=0,
            )
        if stream is None:
            stream = TokenStream()
        # Embedded with their handles; keywords and vetting read words.
        docs = stream.documents([p.text for p in english])
        labels = self._cluster(docs)
        stats = cluster_stats(labels)
        words = docs.words()
        with tracer.span("nlp.keywords", n_clusters=stats.n_clusters):
            keywords = class_tfidf_keywords(words, labels, top_n=10)
        vetter = ClusterVetter()
        with tracer.span("nlp.vetting", n_clusters=stats.n_clusters):
            verdicts = vetter.vet(words, labels, keywords)
        return self._aggregate(posts, english, labels, verdicts, stats)

    # -- clustering -------------------------------------------------------------

    def _cluster(self, docs: Documents) -> np.ndarray:
        # The embedder (and its IDF table) is freed before clustering,
        # which sets the stage's peak memory.
        matrix = HashedTfidfEmbedder(
            dims=EMBEDDING_DIMS, telemetry=self.telemetry).fit_transform(docs)
        if len(docs) > self.config.large_corpus_threshold:
            clusterer = ScalableDensityClusterer(
                merge_eps=MERGE_EPS,
                min_cluster_size=MIN_CLUSTER_SIZE,
                max_k=KMEANS_MAX_K,
                seed=SEED,
                refine_min=REFINE_MIN,
                refine_divisor=REFINE_DIVISOR,
                telemetry=self.telemetry,
            )
            return clusterer.fit_predict(matrix)
        dbscan = DBSCAN(eps=DBSCAN_EPS, min_samples=DBSCAN_MIN_SAMPLES,
                        telemetry=self.telemetry)
        return dbscan.fit_predict(matrix)

    # -- aggregation ---------------------------------------------------------------

    def _aggregate(
        self,
        all_posts: Sequence[PostRecord],
        english: List[PostRecord],
        labels: np.ndarray,
        verdicts: List[ClusterVerdict],
        stats,
    ) -> ScamReport:
        subtype_of_cluster = {v.cluster_id: v.subtype for v in verdicts if v.is_scam}
        scam_posts_by_platform: Counter = Counter()
        scam_accounts: Set[Tuple[str, str]] = set()
        scam_post_subtypes: Dict[int, str] = {}
        scam_post_ids: Dict[str, str] = {}
        subtype_posts: Counter = Counter()
        subtype_accounts: Dict[str, Set[Tuple[str, str]]] = {}
        for index, (post, label) in enumerate(zip(english, labels)):
            subtype = subtype_of_cluster.get(int(label))
            if subtype is None:
                continue
            key = (post.platform, post.handle)
            scam_posts_by_platform[post.platform] += 1
            scam_accounts.add(key)
            scam_post_subtypes[index] = subtype
            scam_post_ids[post.post_id] = subtype
            subtype_posts[subtype] += 1
            subtype_accounts.setdefault(subtype, set()).add(key)
        accounts_by_platform: Counter = Counter()
        for platform, handle in scam_accounts:
            accounts_by_platform[platform] += 1
        table5 = {
            platform: (
                accounts_by_platform.get(platform, 0),
                scam_posts_by_platform.get(platform, 0),
            )
            for platform in sorted(
                set(accounts_by_platform) | set(scam_posts_by_platform)
            )
        }
        table6: Dict[str, Dict[str, Tuple[int, int]]] = {}
        for subtype, posts_count in subtype_posts.items():
            category = SUBTYPE_TO_CATEGORY[subtype]
            table6.setdefault(category, {})[subtype] = (
                len(subtype_accounts[subtype]),
                posts_count,
            )
        return ScamReport(
            posts_considered=len(all_posts),
            posts_english=len(english),
            n_clusters=stats.n_clusters,
            n_noise=stats.n_noise,
            verdicts=verdicts,
            table5=table5,
            table6=table6,
            total_scam_accounts=len(scam_accounts),
            total_scam_posts=sum(scam_posts_by_platform.values()),
            scam_accounts=scam_accounts,
            scam_post_subtypes=scam_post_subtypes,
            scam_post_ids=scam_post_ids,
        )


__all__ = [
    "ClusterVerdict",
    "ClusterVetter",
    "ScamPipelineConfig",
    "ScamPostAnalysis",
    "ScamReport",
]
