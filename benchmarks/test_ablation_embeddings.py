"""Ablation — embedding design choices (IDF weighting, bigram features).

The hashed TF-IDF embedder replaces the paper's sentence transformer.
This bench measures how its two main switches affect the property the
clustering depends on: posts of the same scam subtype must sit closer
together than posts of different subtypes (silhouette-style margin).
"""

import numpy as np

from benchmarks.conftest import record_report
from repro.nlp.embeddings import HashedTfidfEmbedder
from repro.nlp.tokenize import TokenStream
from repro.synthetic.scamtext import ALL_SUBTYPES, scam_post_text
from repro.util.rng import RngTree


def _margin(matrix: np.ndarray, labels: np.ndarray) -> float:
    """Mean(intra-class cosine) - mean(inter-class cosine)."""
    sims = matrix @ matrix.T
    same = labels[:, None] == labels[None, :]
    eye = np.eye(len(labels), dtype=bool)
    intra = sims[same & ~eye].mean()
    inter = sims[~same].mean()
    return float(intra - inter)


def test_ablation_embeddings(benchmark):
    rng = RngTree(2718).child("ablation")
    texts, labels = [], []
    for index, subtype in enumerate(ALL_SUBTYPES):
        for _ in range(30):
            texts.append(scam_post_text(subtype, rng))
            labels.append(index)
    label_array = np.array(labels)
    docs = TokenStream().documents(texts)

    def run_all():
        margins = {}
        for use_idf in (True, False):
            for use_bigrams in (True, False):
                embedder = HashedTfidfEmbedder(dims=192, use_bigrams=use_bigrams)
                matrix = (
                    embedder.fit_transform(docs)
                    if use_idf else embedder.transform(docs)
                )
                name = f"idf={use_idf} bigrams={use_bigrams}"
                margins[name] = _margin(matrix.astype(np.float32), label_array)
        return margins

    margins = benchmark.pedantic(run_all, rounds=1, iterations=1)
    lines = ["Ablation: embedding variants (intra-minus-inter subtype cosine)"]
    for name, margin in margins.items():
        lines.append(f"  {name:<28} margin={margin:.3f}")
    record_report("Ablation: embeddings", "\n".join(lines))

    # Every variant must separate subtypes; the production default
    # (idf=True, bigrams=True) must be solidly positive.
    assert all(margin > 0.05 for margin in margins.values())
    assert margins["idf=True bigrams=True"] > 0.1
