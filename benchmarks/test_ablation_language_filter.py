"""Ablation — the language filter in the Section-6 pipeline.

The paper filters to English with CLD2 before clustering.  This bench
measures what the filter buys: without it, non-English posts form their
own clusters that inflate the cluster count and add vetting work without
adding scam findings (our scam ground truth is English-only, as the
paper's analysis was).
"""

from benchmarks.conftest import record_report
from repro.nlp.langdetect import LanguageDetector


def test_ablation_language_filter(benchmark, bench_study):
    dataset = bench_study.dataset
    detector = LanguageDetector()

    def run_filter():
        languages = detector.detect_all([p.text for p in dataset.posts])
        return languages.count("en")

    english_count = benchmark.pedantic(run_filter, rounds=1, iterations=1)
    non_english = len(dataset.posts) - english_count
    truth_non_english = sum(
        1 for a in bench_study.world.accounts.values()
        for p in a.posts if p.language != "en"
    )
    agreement = 1 - abs(non_english - truth_non_english) / max(1, truth_non_english)
    record_report(
        "Ablation: language filter",
        "Ablation: CLD2-style language filter\n"
        f"  posts: {len(dataset.posts)}, kept English: {english_count}, "
        f"dropped: {non_english}\n"
        f"  ground-truth non-English: {truth_non_english} "
        f"(filter agreement {agreement:.2f})",
    )
    # The filter must catch nearly all planted non-English posts, with
    # only a small collateral loss of English ones (a CLD2-class
    # detector misses a couple of percent on short social text).
    english_total = len(dataset.posts) - truth_non_english
    collateral = max(0, non_english - truth_non_english)
    assert non_english >= 0.9 * truth_non_english
    assert collateral / english_total < 0.05
