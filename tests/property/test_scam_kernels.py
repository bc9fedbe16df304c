"""Differential tests for the scam-post stage's inner loops.

Each optimised kernel is compared, with exact equality, against the loop
it replaced: the cluster vetter's indicator scan, k-means++ seeding and
the Lloyd update, the language filter's n-gram scoring, the hashed
TF-IDF embedder and the class TF-IDF keywords.  The references below are
those loops, unchanged, so a kernel that reorders one floating-point
operation fails here.  They read texts and tokenize each one themselves,
as every consumer did before the stage shared one
:class:`~repro.nlp.tokenize.TokenStream`.  Arrays compare with
``np.array_equal`` and scores by ``repr``, which also tells an int ``0``
from ``0.0``.

The references are also the kernels the stage-level differential test in
``tests/analysis/test_scam_posts.py`` patches in.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import re
import string
import tracemalloc
from collections import Counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.analysis import scam_posts
from repro.analysis.scam_posts import (
    CODEBOOK_INDICATORS,
    SUBTYPE_MASKS,
    VETTING_SAMPLE,
    VETTING_THRESHOLD,
    ClusterVerdict,
    ClusterVetter,
    _matches_indicator,
)
from repro.nlp import cluster as cluster_module
from repro.nlp.cluster import (
    _assign_blockwise,
    _kmeans_pp_init,
    _row_sq_norms,
    _sum_by_center,
    kmeans,
)
from repro.nlp.embeddings import HashedTfidfEmbedder
from repro.nlp.keywords import class_tfidf_keywords
from repro.nlp.langdetect import (
    _CHUNK_DOCS,
    _POINT_BITS,
    _SEED_TEXT,
    MIN_CONFIDENCE,
    LanguageDetector,
    _gram_counts,
)
from repro.nlp.stopwords import remove_stopwords
from repro.nlp.tokenize import TokenStream, bigrams, tokenize
from repro.synthetic.scamtext import SUBTYPE_TO_CATEGORY, VETTING_CODEBOOK


def _docs(texts: Sequence[Optional[str]], handles: bool = True):
    """``texts`` over a new stream, as tokens or as words."""
    docs = TokenStream().documents(texts)
    return docs if handles else docs.words()


def _masks(vetter: ClusterVetter, texts: Sequence[Optional[str]]) -> List[int]:
    """The shipped vetter's post masks for ``texts``."""
    words = _docs(texts, handles=False)
    return [vetter._post_mask(words[d], words.stream.tokens)
            for d in range(len(words))]

# -- reference: cluster vetting ------------------------------------------------


def reference_indicator_hits(tokens: Set[str], indicators: Sequence[str]) -> int:
    hits = 0
    for indicator in indicators:
        if indicator in tokens:
            hits += 1
            continue
        if len(indicator) >= 4 and any(
            token.startswith(indicator) or
            (len(token) >= 4 and indicator.startswith(token))
            for token in tokens
        ):
            hits += 1
    return hits


def reference_post_mask(self, text: str) -> int:
    """The codebook bits a post's tokens match."""
    token_bits = self._token_bits
    mask = 0
    for token in set(tokenize(text, keep_handles=False)):
        bits = token_bits.get(token)
        if bits is None:
            bits = token_bits[token] = sum(
                1 << bit for bit, indicator in enumerate(CODEBOOK_INDICATORS)
                if _matches_indicator(token, indicator)
            )
        mask |= bits
    return mask


def reference_score_sample(self, sample: List[str]) -> Tuple[Optional[str], float]:
    scores: Dict[str, float] = {}
    token_sets = [set(tokenize(text, keep_handles=False)) for text in sample]
    for subtype, indicators in VETTING_CODEBOOK.items():
        matches = sum(
            1 for tokens in token_sets
            if reference_indicator_hits(tokens, indicators) >= 2
        )
        scores[subtype] = matches / max(1, len(sample))
    best_subtype = max(scores, key=lambda s: (scores[s], s))
    best = scores[best_subtype]
    if best >= VETTING_THRESHOLD:
        return best_subtype, best
    return None, best


def reference_vet(self, texts: Sequence[str], labels: np.ndarray,
                  keywords: Dict[int, List[Tuple[str, float]]]
                  ) -> List[ClusterVerdict]:
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
        subtype, score = reference_score_sample(self, [texts[i] for i in sample])
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


# -- reference: keywords --------------------------------------------------------


def reference_class_tfidf_keywords(
    texts: Sequence[str],
    labels: Sequence[int],
    top_n: int = 10,
) -> Dict[int, List[Tuple[str, float]]]:
    if len(texts) != len(labels):
        raise ValueError("texts and labels must align")
    class_counts: Dict[int, Counter] = {}
    term_class_presence: Counter = Counter()
    for text, label in zip(texts, labels):
        if label < 0:
            continue
        counts = class_counts.setdefault(label, Counter())
        tokens = remove_stopwords(tokenize(text))
        counts.update(tokens)
    for label, counts in class_counts.items():
        for term in counts:
            term_class_presence[term] += 1
    n_classes = max(1, len(class_counts))
    keywords: Dict[int, List[Tuple[str, float]]] = {}
    for label, counts in class_counts.items():
        total = sum(counts.values()) or 1
        scored = []
        for term, count in counts.items():
            tf = count / total
            idf = math.log(1 + n_classes / term_class_presence[term])
            scored.append((term, tf * idf))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        keywords[label] = scored[:top_n]
    return keywords


# -- reference: k-means ----------------------------------------------------------


def _reference_pairwise_sq_dists(block: np.ndarray, points: np.ndarray) -> np.ndarray:
    cross = block @ points.T
    block_norms = (block * block).sum(axis=1)[:, None]
    point_norms = (points * points).sum(axis=1)[None, :]
    d2 = block_norms + point_norms - 2.0 * cross
    np.maximum(d2, 0.0, out=d2)
    return d2


def reference_kmeans_pp_init(points: np.ndarray, k: int,
                             rng: np.random.Generator) -> np.ndarray:
    n = len(points)
    centers = np.empty((k, points.shape[1]), dtype=points.dtype)
    first = rng.integers(0, n)
    centers[0] = points[first]
    closest = _reference_pairwise_sq_dists(points, centers[0:1]).ravel()
    for c in range(1, k):
        total = closest.sum()
        if total <= 0:
            centers[c:] = points[rng.integers(0, n, size=k - c)]
            break
        probs = closest / total
        index = rng.choice(n, p=probs)
        centers[c] = points[index]
        d2 = _reference_pairwise_sq_dists(points, centers[c : c + 1]).ravel()
        np.minimum(closest, d2, out=closest)
    return centers


def _reference_assign_blockwise(points: np.ndarray, centers: np.ndarray,
                                block_size: int = 8192) -> np.ndarray:
    assignments = np.empty(len(points), dtype=np.int64)
    for start in range(0, len(points), block_size):
        block = points[start : start + block_size]
        d2 = _reference_pairwise_sq_dists(block, centers)
        assignments[start : start + len(block)] = d2.argmin(axis=1)
    return assignments


def reference_kmeans(points: np.ndarray, k: int, iterations: int = 25,
                     seed: int = 0) -> np.ndarray:
    n = len(points)
    k = min(k, n)
    rng = np.random.default_rng(seed)
    if n > 50_000:
        sample = points[rng.choice(n, size=20_000, replace=False)]
        centers = reference_kmeans_pp_init(sample, k, rng)
    else:
        centers = reference_kmeans_pp_init(points, k, rng)
    assignments = np.zeros(n, dtype=np.int64)
    for _ in range(iterations):
        new_assignments = _reference_assign_blockwise(points, centers)
        if np.array_equal(new_assignments, assignments):
            assignments = new_assignments
            break
        assignments = new_assignments
        sums = np.zeros_like(centers)
        np.add.at(sums, assignments, points)
        counts = np.bincount(assignments, minlength=k).astype(points.dtype)
        occupied = counts > 0
        centers[occupied] = sums[occupied] / counts[occupied, None]
    return assignments


# -- reference: language filter ----------------------------------------------------

_SOCIAL_TOKEN_RE = re.compile(r"(?:https?://\S+|[#@]\w+)")


def reference_trigrams(text: str) -> Counter:
    text = _SOCIAL_TOKEN_RE.sub(" ", text.lower())
    cleaned = " ".join(ch if ch.isalpha() or ch == " " else " " for ch in text)
    cleaned = " ".join(cleaned.split())
    padded = f" {cleaned} "
    return Counter(padded[i : i + 3] for i in range(len(padded) - 2))


def _reference_normalize(counts: Counter) -> Dict[str, float]:
    norm = math.sqrt(sum(c * c for c in counts.values()))
    if norm == 0:
        return {}
    return {gram: c / norm for gram, c in counts.items()}


REFERENCE_PROFILES: Dict[str, Dict[str, float]] = {
    lang: _reference_normalize(reference_trigrams(text))
    for lang, text in _SEED_TEXT.items()
}


def reference_scores(self, text: str) -> List[Tuple[str, float]]:
    if not isinstance(text, str):
        text = ""
    doc = _reference_normalize(reference_trigrams(text))
    results = []
    for lang, profile in REFERENCE_PROFILES.items():
        score = sum(weight * profile.get(gram, 0.0) for gram, weight in doc.items())
        results.append((lang, score))
    results.sort(key=lambda pair: (-pair[1], pair[0]))
    return results


def reference_detect_all(self, texts: Sequence[Optional[str]]) -> List[str]:
    detected = []
    for text in texts:
        ranked = reference_scores(self, text)
        detected.append("und" if ranked[0][1] < MIN_CONFIDENCE
                        else ranked[0][0])
    return detected


# -- reference: embeddings -----------------------------------------------------------


def _reference_hash_feature(feature: str, dims: int) -> tuple:
    digest = hashlib.blake2b(feature.encode("utf-8"), digest_size=8).digest()
    value = int.from_bytes(digest, "big")
    index = value % dims
    sign = 1.0 if (value >> 63) & 1 else -1.0
    return index, sign


def _reference_features(self, text: str, keep_handles: bool = True) -> List[str]:
    tokens = remove_stopwords(tokenize(text, keep_handles=keep_handles))
    feats = list(tokens)
    if self.use_bigrams:
        feats.extend(bigrams(tokens))
    return feats


def reference_fit(self, texts: Sequence[str], keep_handles: bool = True):
    with self.telemetry.tracer.span("nlp.embed.fit", n_docs=len(texts)):
        doc_freq: Dict[str, int] = {}
        for text in texts:
            for feature in set(_reference_features(self, text, keep_handles)):
                doc_freq[feature] = doc_freq.get(feature, 0) + 1
        n_docs = max(1, len(texts))
        self._idf = {
            feature: math.log((1 + n_docs) / (1 + df)) + 1.0
            for feature, df in doc_freq.items()
            if df >= self.min_df
        }
    return self


def reference_rows(self, texts: Sequence[str],
                   keep_handles: bool = True) -> np.ndarray:
    """The loop's float64 rows, before the cast to float32."""
    matrix = np.zeros((len(texts), self.dims), dtype=np.float64)
    for row, text in enumerate(texts):
        counts: Dict[str, int] = {}
        for feature in _reference_features(self, text, keep_handles):
            counts[feature] = counts.get(feature, 0) + 1
        for feature, count in counts.items():
            idf = 1.0 if self._idf is None else self._idf.get(feature, 0.0)
            if idf == 0.0:
                continue
            weight = (1.0 + math.log(count)) * idf
            index, sign = _reference_hash_feature(feature, self.dims)
            matrix[row, index] += sign * weight
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return matrix / norms


def reference_transform(self, texts: Sequence[str],
                        keep_handles: bool = True) -> np.ndarray:
    with self.telemetry.tracer.span("nlp.embed.transform", n_docs=len(texts)):
        # The stage clusters float32: the loop's float64 result is cast
        # once, at the end.
        return reference_rows(self, texts, keep_handles).astype(np.float32)


def reference_fit_transform(self, texts: Sequence[str],
                            keep_handles: bool = True) -> np.ndarray:
    return reference_transform(reference_fit(self, texts, keep_handles),
                               texts, keep_handles)


class _Texts(list):
    """What a patched ``TokenStream.documents`` hands the stage: the
    texts themselves, for the references to tokenize."""

    def words(self) -> "_Texts":
        return self


def patch_reference_kernels(monkeypatch) -> None:
    """Swap the shipped kernels for the references above.

    The stage's token stream hands out texts instead of ids, and each
    reference tokenizes them as the stage's consumers did: the embedder
    with handles, the keywords and the vetter without.
    """
    monkeypatch.setattr(TokenStream, "documents",
                        lambda self, texts: _Texts(texts))
    monkeypatch.setattr(ClusterVetter, "vet", reference_vet)
    monkeypatch.setattr(scam_posts, "class_tfidf_keywords",
                        reference_class_tfidf_keywords)
    monkeypatch.setattr(cluster_module, "kmeans", reference_kmeans)
    monkeypatch.setattr(LanguageDetector, "scores", reference_scores)
    monkeypatch.setattr(LanguageDetector, "detect_all", reference_detect_all)
    monkeypatch.setattr(HashedTfidfEmbedder, "fit", reference_fit)
    monkeypatch.setattr(HashedTfidfEmbedder, "transform", reference_transform)
    monkeypatch.setattr(HashedTfidfEmbedder, "fit_transform",
                        reference_fit_transform)


# -- strategies ---------------------------------------------------------------------

_INDICATORS = sorted({i for group in VETTING_CODEBOOK.values() for i in group})
# Codebook words, their stems and extensions (prefix stemming both ways),
# short tokens that only match exactly, and words that match nothing.
_VETTING_WORDS = (
    _INDICATORS
    + [i[:n] for i in _INDICATORS for n in (2, 3, 4, 5) if n < len(i)]
    + [i + suffix for i in _INDICATORS[::3] for suffix in ("s", "ment", "ing")]
    + ["nft", "nfts", "nftsomething", "vip", "vips", "car", "cars", "fan",
       "fans", "tag", "tags", "odds", "weather", "hiking", "the", "a1",
       "@wallet", "#bitcoin", "https://x.example/profit", "it's", "don't"]
)
_vetting_text = st.lists(st.sampled_from(_VETTING_WORDS), max_size=12).map(" ".join)

_LANG_PIECES = (
    [text.split()[i] for text in _SEED_TEXT.values() for i in (0, 5, 9, 14)]
    + ["", " ", "2024", "12345", "!!!", "😀🔥", "café", "naïve", "über",
       "İstanbul", "straße", "ǅ", "ﬁ", "Ⅻ", "²", "_", "#motivation",
       "@user", "https://x.example/a", "don't", "x.y", "\t\n"]
)
_lang_text = st.one_of(
    st.text(max_size=40),
    st.lists(st.sampled_from(_LANG_PIECES), max_size=10).map(" ".join),
    st.lists(st.sampled_from(_LANG_PIECES), max_size=10).map("".join),
)

_EMBED_WORDS = (
    ["crypto", "profit", "trading", "follow", "subscribe", "the", "and", "a",
     "now", "now", "bitcoin", "aged", "accounts", "it's", "#crypto", "#a_b",
     "#a", "b", "@seller", "@seller.shop", "x2", "42", "https://x.example/p",
     "Café", "😀"]
)
_embed_text = st.one_of(
    st.lists(st.sampled_from(_EMBED_WORDS), max_size=14).map(" ".join),
    st.text(alphabet=string.ascii_lowercase + " #@_'", max_size=30),
    st.just(""),
    st.none(),
)
_corpus = st.lists(_embed_text, max_size=12)
_embedder = st.builds(
    HashedTfidfEmbedder,
    dims=st.sampled_from([8, 13, 32, 192]),
    use_bigrams=st.booleans(),
    min_df=st.integers(1, 3),
)


@st.composite
def _point_sets(draw, dtype):
    """Points with duplicates: rows drawn from a few distinct prototypes."""
    d = draw(st.integers(1, 6))
    n_distinct = draw(st.integers(1, 8))
    width = 32 if dtype == np.float32 else 64
    prototypes = draw(arrays(dtype, (n_distinct, d), elements=st.floats(
        -100, 100, allow_nan=False, width=width)))
    picks = draw(st.lists(st.integers(0, n_distinct - 1), min_size=1,
                          max_size=40))
    return prototypes[np.array(picks)]


_both_dtypes = st.sampled_from([np.float32, np.float64])


# -- vetting -------------------------------------------------------------------------


class TestVettingKernel:
    @given(st.lists(_vetting_text, max_size=25))
    @settings(max_examples=200, deadline=None)
    def test_score_sample_matches_reference(self, sample):
        vetter = ClusterVetter()
        assert repr(vetter._score_sample(_masks(vetter, sample))) == repr(
            reference_score_sample(vetter, sample))

    @given(_vetting_text)
    @settings(max_examples=200, deadline=None)
    def test_hit_counts_match_reference(self, text):
        # Stronger than the verdict: every subtype's hit count agrees,
        # not only which side of the two-indicator threshold it falls.
        vetter = ClusterVetter()
        [mask] = _masks(vetter, [text])
        assert mask == reference_post_mask(ClusterVetter(), text)
        tokens = set(tokenize(text, keep_handles=False))
        for subtype, indicators in VETTING_CODEBOOK.items():
            hits = bin(mask & SUBTYPE_MASKS[subtype]).count("1")
            assert hits == reference_indicator_hits(tokens, indicators), subtype

    @pytest.mark.parametrize("sample", [
        [], [""], [None], ["nft nfts"], ["nft"], ["nfts wallet"],
        ["nftsomething wallet"], ["investment profits"], ["inv pro"],
        ["deposit"], ["deposit car"], ["deposit bitcoin"],
        ["fan fans"], ["vip odds"], ["ship shipping order"],
    ])
    def test_edge_samples(self, sample):
        vetter = ClusterVetter()
        assert repr(vetter._score_sample(_masks(vetter, sample))) == repr(
            reference_score_sample(vetter, sample))

    @given(st.lists(_vetting_text, max_size=60), st.data())
    @settings(max_examples=100, deadline=None)
    def test_vet_matches_reference(self, texts, data):
        # Whole verdicts, sampling included, over words read from one
        # stream.
        labels = np.array(data.draw(st.lists(
            st.integers(-1, 4), min_size=len(texts), max_size=len(texts))))
        keywords = {0: [("profit", 0.5)]}
        shipped = ClusterVetter().vet(_docs(texts, handles=False), labels,
                                      keywords)
        reference = reference_vet(ClusterVetter(), texts, labels, keywords)
        assert repr(shipped) == repr(reference)


# -- k-means ---------------------------------------------------------------------------


class TestKmeansKernel:
    @given(_both_dtypes.flatmap(_point_sets), st.integers(1, 12),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_seeding_matches_reference(self, points, k, seed):
        k = min(k, len(points))
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        new = _kmeans_pp_init(points, _row_sq_norms(points), k, rng_new)
        ref = reference_kmeans_pp_init(points, k, rng_ref)
        assert new.dtype == ref.dtype
        assert np.array_equal(new, ref)
        # Both consumed the generator identically.
        assert rng_new.integers(0, 2**62) == rng_ref.integers(0, 2**62)

    @given(_both_dtypes.flatmap(_point_sets), st.integers(1, 12),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_kmeans_matches_reference(self, points, k, seed):
        assert np.array_equal(kmeans(points, k, seed=seed),
                              reference_kmeans(points, k, seed=seed))

    @given(_both_dtypes.flatmap(_point_sets), st.data())
    @settings(max_examples=150, deadline=None)
    def test_lloyd_sums_match_add_at(self, points, data):
        # The update's per-centre sums, compared directly: a different
        # summation order (``np.add.reduceat``, say) often leaves the
        # labels of small inputs alone but not the sums.
        k = data.draw(st.integers(1, 10))
        assignments = np.array(data.draw(st.lists(
            st.integers(0, k - 1), min_size=len(points),
            max_size=len(points))), dtype=np.int64)
        sums, counts = _sum_by_center(points, assignments, k)
        reference = np.zeros((k, points.shape[1]), dtype=points.dtype)
        np.add.at(reference, assignments, points)
        assert sums.dtype == reference.dtype
        assert np.array_equal(sums, reference)
        assert np.array_equal(counts, np.bincount(assignments, minlength=k))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_k_equals_n(self, dtype):
        points = np.random.default_rng(5).normal(size=(30, 4)).astype(dtype)
        rng_new, rng_ref = np.random.default_rng(1), np.random.default_rng(1)
        assert np.array_equal(_kmeans_pp_init(points, _row_sq_norms(points),
                                              30, rng_new),
                              reference_kmeans_pp_init(points, 30, rng_ref))
        assert np.array_equal(kmeans(points, 30, seed=2),
                              reference_kmeans(points, 30, seed=2))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_all_duplicate_points(self, dtype):
        # Every distance is zero after the first centre: the
        # ``total <= 0`` branch fills the rest at random.
        points = np.tile(np.array([[0.5, -1.25, 3.0]], dtype=dtype), (17, 1))
        rng_new, rng_ref = np.random.default_rng(3), np.random.default_rng(3)
        assert np.array_equal(_kmeans_pp_init(points, _row_sq_norms(points),
                                              6, rng_new),
                              reference_kmeans_pp_init(points, 6, rng_ref))
        assert np.array_equal(kmeans(points, 6, seed=4),
                              reference_kmeans(points, 6, seed=4))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_many_points_uneven_clusters(self, dtype):
        # Large, uneven groups: the Lloyd update's per-centre row order
        # decides the float sums, so any reordering flips labels here.
        rng = np.random.default_rng(11)
        centres = rng.normal(scale=4.0, size=(12, 8))
        sizes = rng.integers(1, 300, size=12)
        points = np.vstack([
            c + rng.normal(size=(s, 8)) for c, s in zip(centres, sizes)
        ])[rng.permutation(int(sizes.sum()))].astype(dtype)
        for k in (5, 40, 190):
            assert np.array_equal(kmeans(points, k, seed=k),
                                  reference_kmeans(points, k, seed=k))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_inputs_past_one_slice(self, dtype):
        # Seeding norms and the assignment's distances run in 1024-row
        # slices, and the assignment's products in 8192-row blocks:
        # 9,500 points cross both boundaries and end on a partial slice.
        rng = np.random.default_rng(17)
        points = rng.normal(size=(9_500, 12)).astype(dtype)
        rng_new, rng_ref = np.random.default_rng(6), np.random.default_rng(6)
        norms = _row_sq_norms(points)
        centers = _kmeans_pp_init(points, norms, 40, rng_new)
        assert np.array_equal(centers,
                              reference_kmeans_pp_init(points, 40, rng_ref))
        assert np.array_equal(_assign_blockwise(points, norms, centers),
                              _reference_assign_blockwise(points, centers))
        assert np.array_equal(kmeans(points, 40, iterations=4, seed=3),
                              reference_kmeans(points, 40, iterations=4, seed=3))


# -- language filter ---------------------------------------------------------------------


def _spaced(gram: int) -> str:
    """A gram id in the reference's spelling: "x" -> " x ", "xy" -> "x y"."""
    if gram < 1 << _POINT_BITS:
        return f" {chr(gram)} "
    return f"{chr((gram >> _POINT_BITS) - 1)} {chr(gram & ((1 << _POINT_BITS) - 1))}"


class TestLanguageKernel:
    def test_profiles_match_reference(self):
        detector = LanguageDetector()
        assert detector.languages == sorted(REFERENCE_PROFILES)
        for lang, weights in zip(detector.languages, detector._weights):
            profile = {_spaced(gram): weight for gram, weight in zip(
                detector._grams.tolist(), weights.tolist()) if weight != 0.0}
            assert profile == REFERENCE_PROFILES[lang]

    @given(_lang_text)
    @settings(max_examples=300, deadline=None)
    def test_grams_match_reference_in_order(self, text):
        _, grams, counts = _gram_counts([LanguageDetector()._letters(text)])
        assert [(_spaced(gram), count) for gram, count in zip(
            grams.tolist(), counts.tolist())] \
            == list(reference_trigrams(text).items())

    @given(st.lists(st.one_of(_lang_text, st.none()), min_size=1, max_size=40),
           st.data())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_batch_matches_one_text_calls_and_reference(self, drawn, data):
        # The drawn texts, with None, "" and non-ASCII text, repeated past
        # one chunk and shifted, so each lands at several chunk positions.
        shift = data.draw(st.integers(0, len(drawn) - 1))
        pieces = drawn + [None, "", "café İstanbul straße ǅ", "😀 x"]
        texts = (pieces * (_CHUNK_DOCS // len(pieces) + 2))[
            shift : shift + _CHUNK_DOCS + len(pieces) + 1]
        assert len(texts) > _CHUNK_DOCS
        detector = LanguageDetector()
        batch = detector.detect_all(texts)
        assert batch == [detector.detect(text) for text in texts]
        assert batch == reference_detect_all(detector, texts)
        letters = [detector._letters(text) for text in texts[:_CHUNK_DOCS]]
        assert np.array_equal(
            detector._score_letters(letters),
            np.vstack([detector._score_letters([one]) for one in letters]))

    @given(_lang_text)
    @settings(max_examples=300, deadline=None)
    def test_scores_match_reference(self, text):
        detector = LanguageDetector()
        assert repr(detector.scores(text)) == repr(reference_scores(detector, text))

    @pytest.mark.parametrize("text", [
        None, "", "   ", "12345", "2024-01-01", "😀🔥💯", "#motivation @user",
        "café naïve über", "İstanbul straße", "a", "ab",
        "thank you all for watching the new video",
        "gracias por el apoyo nueva publicacion cada semana",
    ])
    def test_edge_texts(self, text):
        detector = LanguageDetector()
        assert repr(detector.scores(text)) == repr(reference_scores(detector, text))


# -- embeddings ---------------------------------------------------------------------------


def _reference_twin(embedder: HashedTfidfEmbedder) -> HashedTfidfEmbedder:
    return HashedTfidfEmbedder(dims=embedder.dims,
                               use_bigrams=embedder.use_bigrams,
                               min_df=embedder.min_df)


class TestEmbeddingKernel:
    """The embedder over a stream's tokens (with handles) or words
    (without) against the loop over ``tokenize(text, keep_handles)``."""

    @given(_embedder, _corpus, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_fit_transform_matches_reference(self, embedder, texts, handles):
        reference = _reference_twin(embedder)
        matrix = embedder.fit_transform(_docs(texts, handles))
        assert matrix.dtype == np.float32
        assert np.array_equal(matrix, reference_fit_transform(
            reference, texts, keep_handles=handles))
        assert embedder._idf == reference._idf

    @given(_embedder, _corpus, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_transform_without_fit_matches_reference(self, embedder, texts,
                                                     handles):
        reference = _reference_twin(embedder)
        matrix = embedder.transform(_docs(texts, handles))
        assert matrix.dtype == np.float32
        assert np.array_equal(matrix, reference_transform(
            reference, texts, keep_handles=handles))

    @pytest.mark.parametrize("dims", [8, 13])
    def test_colliding_features_add_in_document_order(self, dims):
        # Few dimensions and long documents put three or more features
        # in one cell, where the order of the additions shows in the
        # last bits; short hypothesis documents rarely get there.
        rng = np.random.default_rng(dims)
        words = [f"w{a}{b}" for a in string.ascii_lowercase
                 for b in string.ascii_lowercase[:12]]
        texts = [" ".join(rng.choice(words, size=int(rng.integers(5, 60))))
                 for _ in range(300)]
        embedder = HashedTfidfEmbedder(dims=dims)
        reference = _reference_twin(embedder)
        matrix = embedder.fit_transform(_docs(texts))
        assert matrix.dtype == np.float32
        assert np.array_equal(matrix, reference_fit_transform(reference, texts))
        # The float32 cast hides most last-bit differences of the float64
        # sums, so the rows are compared before it too.
        corpus = embedder._encode(_docs(texts))
        rows = np.vstack([rows for _, rows in embedder._weighed_slices(
            corpus, embedder._fit(corpus))])
        assert np.array_equal(rows, reference_rows(reference, texts))

    @given(_embedder, _corpus, _corpus, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_fit_then_transform_other_corpus(self, embedder, fit_on, texts,
                                             handles):
        reference = _reference_twin(embedder)
        embedder.fit(_docs(fit_on, handles))
        reference_fit(reference, fit_on, keep_handles=handles)
        assert embedder._idf == reference._idf
        matrix = embedder.transform(_docs(texts, handles))
        assert matrix.dtype == np.float32
        assert np.array_equal(matrix, reference_transform(
            reference, texts, keep_handles=handles))

    def test_min_df_zeroes_rare_features(self):
        # With min_df=2 every feature seen in one document gets idf 0.0
        # and is skipped; transforming another corpus adds unseen
        # features, which are skipped too.
        rng = np.random.default_rng(29)
        letters = string.ascii_lowercase
        words = [f"w{a}{b}{c}" for a in letters for b in letters[:10]
                 for c in letters[:10]]
        fit_on = [" ".join(rng.choice(words, size=int(rng.integers(1, 12))))
                  for _ in range(1_200)]
        texts = fit_on[::3] + [f"{text} unseen {text}" for text in fit_on[1::3]]
        embedder = HashedTfidfEmbedder(min_df=2)
        reference = _reference_twin(embedder)
        assert np.array_equal(embedder.fit_transform(_docs(fit_on)),
                              reference_fit_transform(reference, fit_on))
        assert embedder._idf == reference._idf
        assert 0 < len(embedder._idf) < len(
            embedder._encode(_docs(fit_on)).vocab)
        assert np.array_equal(embedder.transform(_docs(texts)),
                              reference_transform(reference, texts))

    def test_features_repeated_within_a_document(self):
        # A feature seen c times weighs 1 + ln(c): here features and
        # bigrams repeat up to 48 times a document, stopwords between.
        rng = np.random.default_rng(31)
        texts = [" ".join(["crypto profit", "the", "now"][int(i) % 3]
                          for i in rng.integers(0, 3, size=int(n)))
                 for n in rng.integers(0, 120, size=300)]
        embedder = HashedTfidfEmbedder(dims=32)
        reference = _reference_twin(embedder)
        assert np.array_equal(embedder.fit_transform(_docs(texts)),
                              reference_fit_transform(reference, texts))

    def test_matrix_past_one_slice(self):
        # Rows are encoded and normalized in 1024-row slices; 2,600
        # documents end on a partial slice.  The words are letters only,
        # since ``tokenize`` drops a word with a digit in it.
        rng = np.random.default_rng(23)
        words = ["".join(letters) for letters in itertools.product(
            string.ascii_lowercase, repeat=3)][:400] + ["the", "and", "crypto"]
        texts = [" ".join(rng.choice(words, size=int(rng.integers(0, 20))))
                 for _ in range(2_600)]
        embedder = HashedTfidfEmbedder()
        reference = _reference_twin(embedder)
        matrix = embedder.fit_transform(_docs(texts))
        assert matrix.dtype == np.float32
        assert np.count_nonzero(matrix.any(axis=1)) == 2_466
        assert np.array_equal(matrix, reference_fit_transform(reference, texts))


# -- keywords -------------------------------------------------------------------------------


class TestKeywordKernel:
    """Class TF-IDF over a stream's words against the loop over
    ``remove_stopwords(tokenize(text))``."""

    @given(st.lists(st.one_of(_embed_text, _vetting_text), max_size=40),
           st.data(), st.integers(1, 12))
    @settings(max_examples=150, deadline=None)
    def test_keywords_match_reference(self, texts, data, top_n):
        labels = data.draw(st.lists(st.integers(-1, 5), min_size=len(texts),
                                    max_size=len(texts)))
        shipped = class_tfidf_keywords(_docs(texts, handles=False), labels,
                                       top_n=top_n)
        reference = reference_class_tfidf_keywords(texts, labels, top_n=top_n)
        assert repr(shipped) == repr(reference)

    def test_many_classes_past_one_token_width(self):
        # Class and term share one key (class * vocabulary + term): more
        # classes than terms, and a numpy label array, as the stage has.
        rng = np.random.default_rng(37)
        words = ["crypto", "profit", "the", "bitcoin", "wallet", "#crypto",
                 "aged", "accounts", "and", "follow"]
        texts = [" ".join(rng.choice(words, size=int(rng.integers(0, 9))))
                 for _ in range(600)]
        labels = rng.integers(-1, 80, size=len(texts))
        reference = reference_class_tfidf_keywords(texts, labels)
        # The reference keys its result by the labels it was given
        # (``np.int64`` here); the kernel by ``int``.
        assert repr(class_tfidf_keywords(_docs(texts, handles=False), labels)) \
            == repr({int(label): terms for label, terms in reference.items()})


# -- transient memory -----------------------------------------------------------------------


def _clusterer_input(texts: Sequence[str]) -> np.ndarray:
    """The float32 matrix the scam-post stage clusters (the cast is a
    no-op on a float32 embedding and a whole copy on a float64 one),
    with the stage's token stream built inside the measurement."""
    return HashedTfidfEmbedder(dims=192).fit_transform(_docs(texts)).astype(
        np.float32, copy=False)


def _traced_peak(function, *args):
    """``function(*args)`` and the most memory it held at once, in bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = function(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestTransientMemory:
    """The kernels' temporaries stay a slice big, not an input big.

    Each bound sits between the two measured peaks on its input:
    whole-array temporaries (3.0x the float32 output for a float64
    embedding cast to float32, 2.0x the output for the assignment, 1.0x
    the points for seeding, 118 bytes per character of text for the
    language filter) and row slices or document chunks (1.71x, 1.26x,
    0.13x, 1.6 bytes per character).
    """

    def test_language_filter_peak(self):
        rng = np.random.default_rng(7)
        words = " ".join(_SEED_TEXT.values()).split()
        texts = [" ".join(rng.choice(words, size=int(rng.integers(8, 30))))
                 for _ in range(20_000)]
        detected, peak = _traced_peak(LanguageDetector().detect_all, texts)
        assert len(detected) == len(texts)
        assert peak < 4 * sum(map(len, texts))

    def test_embedder_peak(self):
        rng = np.random.default_rng(7)
        words = [f"w{i}" for i in range(3_000)]
        texts = [" ".join(rng.choice(words, size=12)) for _ in range(6_000)]
        matrix, peak = _traced_peak(_clusterer_input, texts)
        assert matrix.dtype == np.float32
        assert peak < 2.0 * matrix.nbytes

    def test_assignment_peak(self):
        rng = np.random.default_rng(7)
        points = rng.normal(size=(8_192, 64)).astype(np.float32)
        centers = points[:473].copy()
        _, peak = _traced_peak(
            lambda: _assign_blockwise(points, _row_sq_norms(points), centers))
        products = len(points) * len(centers) * points.itemsize
        assert peak < 1.5 * products

    def test_seeding_peak(self):
        points = np.random.default_rng(7).normal(size=(20_000, 64)).astype(np.float32)
        _, peak = _traced_peak(lambda: _kmeans_pp_init(
            points, _row_sq_norms(points), 8, np.random.default_rng(1)))
        assert peak < 0.5 * points.nbytes
