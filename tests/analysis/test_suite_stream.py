"""The analysis suite tokenizes each post text once.

The scam-post and indicator stages share one token stream, so a suite
run costs one ``tokenize`` call per distinct post text it reads, plus
the profile names efficacy tokenizes.
"""

from __future__ import annotations

import sys
from collections import Counter

from repro.analysis.suite import run_analysis_suite
from repro.contracts.supervisor import StageSupervisor
from repro.core import Study, StudyConfig
from repro.nlp.tokenize import tokenize


def test_suite_tokenizes_each_post_text_once(monkeypatch):
    dataset = Study(StudyConfig(seed=11, scale=0.01, iterations=2)).run().dataset
    calls: Counter = Counter()

    def counting(text, keep_handles=False):
        calls[text] += 1
        return tokenize(text, keep_handles)

    # Every module-level reference, wherever it was imported.
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            for attr, value in list(vars(module).items()):
                if value is tokenize:
                    monkeypatch.setattr(module, attr, counting)
    results = run_analysis_suite(dataset, StageSupervisor())

    assert not results.failures
    post_texts = {post.text for post in dataset.posts}
    assert len(post_texts) < len(dataset.posts)  # duplicates to skip
    assert sum(calls.values()) <= len(post_texts) + len(dataset.profiles)
    assert max(calls[text] for text in post_texts) == 1
    assert results.report("scam_posts").posts_english > 0
