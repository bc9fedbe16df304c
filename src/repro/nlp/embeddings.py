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
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.nlp.stopwords import STOPWORDS
from repro.nlp.tokenize import Documents
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.util.stats import first_occurrence_counts


#: Documents per slice when counting and weighing features (a weighed
#: slice is float64).
_NORM_ROWS = 1024


def _hash_features(features: Sequence[str], dims: int) -> Tuple[
        np.ndarray, np.ndarray]:
    """Stable (index, sign) arrays for feature strings: each feature's
    8-byte BLAKE2b digest as a big-endian integer, modulo ``dims``, and
    +1.0 when its top bit is set, -1.0 when not."""
    values = np.fromiter(
        (int.from_bytes(hashlib.blake2b(feature.encode("utf-8"),
                                        digest_size=8).digest(), "big")
         for feature in features), dtype=np.uint64, count=len(features))
    return (values % dims).astype(np.int64), np.where(values >> 63, 1.0, -1.0)


class _Encoded(NamedTuple):
    """A corpus as feature ids: document ``d``'s features, in order, are
    ``ids[offsets[d]:offsets[d + 1]]``; ids number ``vocab`` in order of
    first appearance."""

    vocab: Dict[str, int]
    ids: np.ndarray
    offsets: np.ndarray

    def distinct_features(self, start: int, stop: int) -> Tuple[
            np.ndarray, np.ndarray, np.ndarray]:
        """Documents ``start:stop``'s distinct features and their counts,
        as ``(row, feature id, count)`` arrays: row ``r`` is document
        ``start + r``, and each row's features come in order of first
        appearance (the order of a ``Counter`` over the document)."""
        ids = self.ids[self.offsets[start] : self.offsets[stop]]
        rows = np.repeat(np.arange(stop - start, dtype=np.int64),
                         np.diff(self.offsets[start : stop + 1]))
        width = max(1, len(self.vocab))
        keys, counts = first_occurrence_counts(rows * width + ids)
        return keys // width, keys % width, counts


class HashedTfidfEmbedder:
    """Embeds documents into a dense ``dims``-dimensional space.

    Usage::

        embedder = HashedTfidfEmbedder(dims=256)
        docs = TokenStream().documents(texts)    # or docs.words()
        matrix = embedder.fit_transform(docs)    # (n_docs, dims) float32, rows L2=1

    A document's features are its tokens less stopwords, then (with
    ``use_bigrams``) each adjacent pair of those joined by ``_``.  A
    feature is its string, so the bigram of ``#a`` and ``b`` is the
    token ``#a_b``; each distinct feature is hashed once.
    """

    def __init__(self, dims: int = 256, use_bigrams: bool = True,
                 min_df: int = 1,
                 telemetry: Optional[Telemetry] = None) -> None:
        if dims < 8:
            raise ValueError("dims must be at least 8")
        self.dims = dims
        self.use_bigrams = use_bigrams
        self.min_df = min_df
        self.telemetry = telemetry or NULL_TELEMETRY
        self._idf: Optional[Dict[str, float]] = None

    # -- features ------------------------------------------------------------

    def _encode(self, docs: Documents) -> _Encoded:
        tokens = docs.stream.tokens
        width = len(tokens)
        stop = np.array([token in STOPWORDS for token in tokens], dtype=bool)
        vocab: Dict[str, int] = {}
        # Feature key -> id.  A token's key is its id; the bigram of
        # tokens ``a`` and ``b`` is ``width * (1 + a) + b``.
        feature_of: Dict[int, int] = {}
        ids: List[np.ndarray] = []
        sizes: List[np.ndarray] = []
        # One slice at least, so an empty corpus concatenates too.
        for start in range(0, max(1, len(docs)), _NORM_ROWS):
            keys, rows = self._feature_keys(docs, start, stop, width)
            distinct, first, inverse = np.unique(
                keys, return_index=True, return_inverse=True)
            feature = np.empty(len(distinct), dtype=np.intc)
            # Keys in order of first appearance, so new features take
            # ids in that order.
            for index in np.argsort(first).tolist():
                key = int(distinct[index])
                feature_id = feature_of.get(key)
                if feature_id is None:
                    name = tokens[key] if key < width else (
                        f"{tokens[key // width - 1]}_{tokens[key % width]}")
                    feature_id = feature_of[key] = vocab.setdefault(
                        name, len(vocab))
                feature[index] = feature_id
            ids.append(feature[inverse])
            sizes.append(np.bincount(
                rows, minlength=min(_NORM_ROWS, len(docs) - start)))
        offsets = np.zeros(len(docs) + 1, dtype=np.int64)
        np.cumsum(np.concatenate(sizes), out=offsets[1:])
        return _Encoded(vocab, np.concatenate(ids), offsets)

    def _feature_keys(self, docs: Documents, start: int, stop: np.ndarray,
                      width: int) -> Tuple[np.ndarray, np.ndarray]:
        """Documents ``start:start + _NORM_ROWS``'s feature keys, each
        document's unigrams then its bigrams in text order, and the row
        of each key within the slice."""
        ids, offsets = docs.flat(start, start + _NORM_ROWS)
        rows = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
        kept = ~stop[ids]
        keys, rows = ids[kept].astype(np.int64), rows[kept]
        if not self.use_bigrams:
            return keys, rows
        pair = rows[1:] == rows[:-1]
        keys = np.concatenate([keys, width * (1 + keys[:-1][pair])
                               + keys[1:][pair]])
        rows = np.concatenate([rows, rows[1:][pair]])
        order = np.argsort(rows, kind="stable")
        return keys[order], rows[order]

    # -- fitting ---------------------------------------------------------------

    def fit(self, docs: Documents) -> "HashedTfidfEmbedder":
        """Learn IDF weights over a corpus."""
        with self.telemetry.tracer.span("nlp.embed.fit", n_docs=len(docs)):
            self._fit(self._encode(docs))
        return self

    def _fit(self, corpus: _Encoded) -> List[float]:
        """Set the IDF weights; returns them by feature id."""
        n_rows = len(corpus.offsets) - 1
        doc_freq = np.zeros(len(corpus.vocab), dtype=np.int64)
        for start in range(0, n_rows, _NORM_ROWS):
            _, feature_ids, _ = corpus.distinct_features(
                start, min(start + _NORM_ROWS, n_rows))
            doc_freq += np.bincount(feature_ids, minlength=len(corpus.vocab))
        n_docs = max(1, n_rows)
        idf = [0.0] * len(corpus.vocab)
        self._idf = {}
        for (feature, feature_id), df in zip(corpus.vocab.items(),
                                             doc_freq.tolist()):
            if df >= self.min_df:
                idf[feature_id] = self._idf[feature] = (
                    math.log((1 + n_docs) / (1 + df)) + 1.0)
        return idf

    def transform(self, docs: Documents) -> np.ndarray:
        """Embed documents as float32 rows, L2-normalized in float64
        (zero rows stay zero)."""
        with self.telemetry.tracer.span("nlp.embed.transform", n_docs=len(docs)):
            corpus = self._encode(docs)
            if self._idf is None:
                idf = [1.0] * len(corpus.vocab)
            else:
                idf = [self._idf.get(feature, 0.0) for feature in corpus.vocab]
            return self._weigh(corpus, idf)

    def _weigh(self, corpus: _Encoded, idf: List[float]) -> np.ndarray:
        matrix = np.empty((len(corpus.offsets) - 1, self.dims), dtype=np.float32)
        # Weighed and normalized in float64, one row slice at a time, then
        # stored as float32: only the result and one slice are held.
        for start, rows in self._weighed_slices(corpus, idf):
            matrix[start : start + len(rows)] = rows
            # Freed before the next slice is weighed.
            del rows
        return matrix

    def _weighed_slices(self, corpus: _Encoded, idf: List[float]
                        ) -> Iterator[Tuple[int, np.ndarray]]:
        """``(start, rows)`` for each slice of ``_NORM_ROWS`` documents:
        their float64 rows, L2-normalized (zero rows stay zero)."""
        index, sign = _hash_features(corpus.vocab, self.dims)
        feature_idf = np.array(idf, dtype=np.float64)
        n_docs = len(corpus.offsets) - 1
        for start in range(0, n_docs, _NORM_ROWS):
            stop = min(start + _NORM_ROWS, n_docs)
            row, feature, count = corpus.distinct_features(start, stop)
            kept = feature_idf[feature] != 0.0
            row, feature, count = row[kept], feature[kept], count[kept]
            # 1 + ln(count) by ``math.log``: numpy's vectorized log is not
            # promised to round like libm's.
            log_tf = np.array([0.0] + [1.0 + math.log(c) for c in
                                       range(1, int(count.max(initial=0)) + 1)])
            rows = np.zeros((stop - start, self.dims))
            # ``np.add.at`` adds each cell's values one at a time, row by
            # row and in order of first appearance within a row: the
            # float64 additions, in order, of a per-feature loop.
            np.add.at(rows.ravel(), row * self.dims + index[feature],
                      sign[feature] * (log_tf[count] * feature_idf[feature]))
            norms = np.linalg.norm(rows, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            rows /= norms
            yield start, rows

    def fit_transform(self, docs: Documents) -> np.ndarray:
        with self.telemetry.tracer.span("nlp.embed.fit", n_docs=len(docs)):
            corpus = self._encode(docs)
            idf = self._fit(corpus)
        with self.telemetry.tracer.span("nlp.embed.transform", n_docs=len(docs)):
            return self._weigh(corpus, idf)


__all__ = ["HashedTfidfEmbedder"]
