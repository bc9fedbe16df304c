"""Ablation — clustering design choices in the Section-6 pipeline.

Compares the scalable density clusterer with and without its refinement
pass on the bench corpus: the refinement exists to surface rare scam
subtypes (Fake Tech Support has only ~26 posts per 18.8K scam posts at
paper scale) that a coarse k-means absorbs into mixed clusters.
"""

from benchmarks.conftest import record_report
from repro.analysis.scam_posts import ClusterVetter
from repro.nlp.cluster import ScalableDensityClusterer, cluster_stats
from repro.nlp.embeddings import HashedTfidfEmbedder
from repro.nlp.keywords import class_tfidf_keywords
from repro.nlp.langdetect import LanguageDetector
from repro.nlp.tokenize import TokenStream
from repro.synthetic import calibration as cal


def _vet(docs, labels):
    keywords = class_tfidf_keywords(docs.words(), labels, top_n=10)
    verdicts = ClusterVetter().vet(docs.words(), labels, keywords)
    return {v.subtype for v in verdicts if v.is_scam}


def test_ablation_clustering_refinement(benchmark, bench_study):
    detector = LanguageDetector()
    posts = bench_study.dataset.posts
    texts = [p.text for p, lang in
             zip(posts, detector.detect_all([p.text for p in posts]))
             if lang == "en"]
    docs = TokenStream().documents(texts)
    matrix = HashedTfidfEmbedder(dims=192).fit_transform(docs)
    paper_subtypes = {
        subtype for subtypes in cal.SCAM_TAXONOMY.values() for subtype in subtypes
    }

    def run_both():
        results = {}
        for name, refine in (("coarse (no refinement)", None), ("refined", 24)):
            clusterer = ScalableDensityClusterer(
                merge_eps=0.4, min_cluster_size=6, max_k=512, seed=7,
                refine_min=refine,
            )
            labels = clusterer.fit_predict(matrix)
            stats = cluster_stats(labels)
            results[name] = (stats.n_clusters, _vet(docs, labels))
        return results

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    lines = ["Ablation: clustering refinement (Section-6 pipeline)"]
    for name, (n_clusters, subtypes) in results.items():
        lines.append(
            f"  {name:<24} clusters={n_clusters:>5}  "
            f"subtypes found={len(subtypes)}/16  "
            f"missing={sorted(paper_subtypes - subtypes)}"
        )
    record_report("Ablation: clustering", "\n".join(lines))

    coarse_subtypes = results["coarse (no refinement)"][1]
    refined_subtypes = results["refined"][1]
    # Refinement must strictly improve subtype coverage on this corpus.
    assert len(refined_subtypes) >= len(coarse_subtypes)
    assert len(refined_subtypes) >= 14  # near-complete Table-6 coverage
