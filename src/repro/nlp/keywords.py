"""Cluster keyword extraction via class-based TF-IDF (the KeyBERT role).

BERTopic's c-TF-IDF treats each cluster's concatenated documents as one
"class document" and scores terms by in-class frequency times inverse
class frequency.  The top terms per cluster are what the vetting step
(and a human analyst) reads to decide what a cluster is about.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.nlp.stopwords import STOPWORDS
from repro.nlp.tokenize import Documents


def class_tfidf_keywords(
    docs: Documents,
    labels: Sequence[int],
    top_n: int = 10,
) -> Dict[int, List[Tuple[str, float]]]:
    """Top ``top_n`` keywords per cluster label (noise ``-1`` excluded).

    A class's terms are its documents' tokens less stopwords (the
    pipeline passes words, without handles).  Returns
    ``{label: [(term, score), ...]}`` with scores sorted descending and
    deterministic tie-breaking on the term.
    """
    if len(docs) != len(labels):
        raise ValueError("docs and labels must align")
    tokens = docs.stream.tokens
    width = max(1, len(tokens))
    stop = np.array([token in STOPWORDS for token in tokens], dtype=bool)
    # Class ``c`` is the ``c``-th distinct label >= 0 in document order.
    classes: Dict[int, int] = {}
    for label in labels:
        if label >= 0:
            classes.setdefault(int(label), len(classes))
    ids, offsets = docs.flat()
    class_of_doc = np.array([classes.get(int(label), -1) for label in labels],
                            dtype=np.int64)
    class_of_id = np.repeat(class_of_doc, np.diff(offsets))
    kept = (class_of_id >= 0) & ~stop[ids]
    pairs, counts = np.unique(class_of_id[kept] * width + ids[kept],
                              return_counts=True)
    pair_class, pair_term = (pairs // width).tolist(), (pairs % width).tolist()
    presence = np.bincount(pair_term, minlength=width).tolist()
    totals = np.bincount(pair_class, weights=counts,
                         minlength=len(classes)).tolist()
    n_classes = max(1, len(classes))
    scored: List[List[Tuple[str, float]]] = [[] for _ in classes]
    for c, term, count in zip(pair_class, pair_term, counts.tolist()):
        tf = count / int(totals[c])
        idf = math.log(1 + n_classes / presence[term])
        scored[c].append((tokens[term], tf * idf))
    keywords: Dict[int, List[Tuple[str, float]]] = {}
    for label, c in classes.items():
        scored[c].sort(key=lambda pair: (-pair[1], pair[0]))
        keywords[label] = scored[c][:top_n]
    return keywords


__all__ = ["class_tfidf_keywords"]
