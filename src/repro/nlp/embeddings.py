"""Hashed TF-IDF embeddings (the sentence-transformer role).

No pretrained model is available offline, so posts are embedded by
feature hashing: token unigrams and bigrams hash into a fixed number of
dimensions (192 in the scam-post pipeline) with signed updates (to cancel
collisions), weighted by log-scaled term frequency and a corpus IDF, then
L2-normalized.  There are no character n-grams and no projection after
hashing: the hashed vector is the embedding.  For the
templated text this study clusters — the paper itself measures 88–100 %
similarity across scam copy — lexical overlap is exactly the signal the
sentence embeddings provided.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from collections import Counter, defaultdict
from typing import Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.nlp.stopwords import remove_stopwords
from repro.nlp.tokenize import bigrams, tokenize
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry


#: Rows per float64 slice when weighing the embedding matrix.
_NORM_ROWS = 1024


def _hash_feature(feature: str, dims: int) -> tuple:
    """Stable (index, sign) for a feature string."""
    digest = hashlib.blake2b(feature.encode("utf-8"), digest_size=8).digest()
    value = int.from_bytes(digest, "big")
    index = value % dims
    sign = 1.0 if (value >> 63) & 1 else -1.0
    return index, sign


class _Encoded(NamedTuple):
    """A corpus as feature ids: document ``d``'s features, in order, are
    ``ids[offsets[d]:offsets[d + 1]]``; ids number ``vocab`` in order of
    first appearance."""

    vocab: Dict[str, int]
    ids: array
    offsets: List[int]

    def documents(self):
        ids = self.ids
        for start, end in zip(self.offsets, self.offsets[1:]):
            yield ids[start:end]


class HashedTfidfEmbedder:
    """Embeds documents into a dense ``dims``-dimensional space.

    Usage::

        embedder = HashedTfidfEmbedder(dims=256)
        matrix = embedder.fit_transform(texts)   # (n_docs, dims) float32, rows L2=1

    ``fit_transform`` tokenizes each document once and hashes each
    distinct feature once.
    """

    def __init__(self, dims: int = 256, use_bigrams: bool = True,
                 keep_handles: bool = True, min_df: int = 1,
                 telemetry: Optional[Telemetry] = None) -> None:
        if dims < 8:
            raise ValueError("dims must be at least 8")
        self.dims = dims
        self.use_bigrams = use_bigrams
        self.keep_handles = keep_handles
        self.min_df = min_df
        self.telemetry = telemetry or NULL_TELEMETRY
        self._idf: Optional[Dict[str, float]] = None

    # -- features ------------------------------------------------------------

    def features(self, text: str) -> List[str]:
        tokens = remove_stopwords(tokenize(text, keep_handles=self.keep_handles))
        feats = list(tokens)
        if self.use_bigrams:
            feats.extend(bigrams(tokens))
        return feats

    def _encode(self, texts: Sequence[str]) -> _Encoded:
        vocab: Dict[str, int] = defaultdict()
        vocab.default_factory = vocab.__len__  # a new feature takes the next id
        ids = array("i")
        offsets = [0]
        for text in texts:
            ids.extend(map(vocab.__getitem__, self.features(text)))
            offsets.append(len(ids))
        return _Encoded(vocab, ids, offsets)

    # -- fitting ---------------------------------------------------------------

    def fit(self, texts: Sequence[str]) -> "HashedTfidfEmbedder":
        """Learn IDF weights over a corpus."""
        with self.telemetry.tracer.span("nlp.embed.fit", n_docs=len(texts)):
            self._fit(self._encode(texts))
        return self

    def _fit(self, corpus: _Encoded) -> List[float]:
        """Set the IDF weights; returns them by feature id."""
        doc_freq: Counter = Counter()
        for document in corpus.documents():
            doc_freq.update(set(document))
        n_docs = max(1, len(corpus.offsets) - 1)
        idf = [0.0] * len(corpus.vocab)
        self._idf = {}
        for feature, feature_id in corpus.vocab.items():
            df = doc_freq[feature_id]
            if df >= self.min_df:
                idf[feature_id] = self._idf[feature] = (
                    math.log((1 + n_docs) / (1 + df)) + 1.0)
        return idf

    def transform(self, texts: Sequence[str]) -> np.ndarray:
        """Embed documents as float32 rows, L2-normalized in float64
        (zero rows stay zero)."""
        with self.telemetry.tracer.span("nlp.embed.transform", n_docs=len(texts)):
            corpus = self._encode(texts)
            if self._idf is None:
                idf = [1.0] * len(corpus.vocab)
            else:
                idf = [self._idf.get(feature, 0.0) for feature in corpus.vocab]
            return self._weigh(corpus, idf)

    def _weigh(self, corpus: _Encoded, idf: List[float]) -> np.ndarray:
        hashed = [_hash_feature(feature, self.dims) for feature in corpus.vocab]
        n_docs = len(corpus.offsets) - 1
        matrix = np.empty((n_docs, self.dims), dtype=np.float32)
        documents = corpus.documents()
        # Weighed and normalized in float64, one row slice at a time, then
        # stored as float32: only the result and one slice are held.
        for start in range(0, n_docs, _NORM_ROWS):
            rows = np.zeros((min(_NORM_ROWS, n_docs - start), self.dims))
            for row, document in zip(range(len(rows)), documents):
                # The row is summed in Python floats, feature by feature
                # in order of first appearance: the same float64
                # additions, in the same order, as updating the matrix
                # cell by cell.
                values = [0.0] * self.dims
                for feature_id, count in Counter(document).items():
                    feature_idf = idf[feature_id]
                    if feature_idf == 0.0:
                        continue
                    weight = (1.0 + math.log(count)) * feature_idf
                    index, sign = hashed[feature_id]
                    values[index] += sign * weight
                rows[row] = values
            norms = np.linalg.norm(rows, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            rows /= norms
            matrix[start : start + len(rows)] = rows
        return matrix

    def fit_transform(self, texts: Sequence[str]) -> np.ndarray:
        with self.telemetry.tracer.span("nlp.embed.fit", n_docs=len(texts)):
            corpus = self._encode(texts)
            idf = self._fit(corpus)
        with self.telemetry.tracer.span("nlp.embed.transform", n_docs=len(texts)):
            return self._weigh(corpus, idf)


__all__ = ["HashedTfidfEmbedder"]
