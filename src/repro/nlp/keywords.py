"""Cluster keyword extraction via class-based TF-IDF (the KeyBERT role).

BERTopic's c-TF-IDF treats each cluster's concatenated documents as one
"class document" and scores terms by in-class frequency times inverse
class frequency.  The top terms per cluster are what the vetting step
(and a human analyst) reads to decide what a cluster is about.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Sequence, Tuple

from repro.nlp.stopwords import remove_stopwords
from repro.nlp.tokenize import tokenize


def class_tfidf_keywords(
    texts: Sequence[str],
    labels: Sequence[int],
    top_n: int = 10,
) -> Dict[int, List[Tuple[str, float]]]:
    """Top ``top_n`` keywords per cluster label (noise ``-1`` excluded).

    Returns ``{label: [(term, score), ...]}`` with scores sorted
    descending and deterministic tie-breaking on the term.
    """
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


__all__ = ["class_tfidf_keywords"]
