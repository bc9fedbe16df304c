"""``reuse_groups`` against the all-pairs scan it replaced.

The shipped function normalizes each text once and skips a pair whose
``real_quick_ratio()`` or ``quick_ratio()`` is below the threshold.  The
reference below is the scan before that change: every pair normalized
again and scored with a full ``ratio()``.  Groups compare by ``repr``,
so the similarity bounds must agree to the last bit.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlp.similarity import (
    ReuseGroup,
    normalized_word_similarity,
    reuse_groups,
)


def reference_reuse_groups(texts: Sequence[str],
                           threshold: float = 0.88) -> List[ReuseGroup]:
    n = len(texts)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    similarities: Dict[Tuple[int, int], float] = {}
    for i in range(n):
        for j in range(i + 1, n):
            sim = normalized_word_similarity(texts[i], texts[j])
            if sim >= threshold:
                similarities[(i, j)] = sim
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    members: Dict[int, List[int]] = {}
    for i in range(n):
        members.setdefault(find(i), []).append(i)
    groups: List[ReuseGroup] = []
    for group_indices in members.values():
        if len(group_indices) < 2:
            continue
        sims = [
            similarities.get((a, b)) or similarities.get((b, a))
            for ai, a in enumerate(group_indices)
            for b in group_indices[ai + 1 :]
        ]
        sims = [s for s in sims if s is not None]
        if not sims:
            sims = [
                normalized_word_similarity(texts[a], texts[b])
                for ai, a in enumerate(group_indices)
                for b in group_indices[ai + 1 :]
            ]
        groups.append(
            ReuseGroup(
                indices=sorted(group_indices),
                min_similarity=min(sims),
                max_similarity=max(sims),
            )
        )
    groups.sort(key=lambda g: (-g.size, g.indices[0]))
    return groups


_WORDS = ["selling", "aged", "tiktok", "instagram", "accounts", "with",
          "organic", "real", "followers", "contact", "telegram", "bulk",
          "discount", "verified", "escrow", "fast", "delivery", "the", "and"]


@st.composite
def _edited(draw, words: List[str]) -> List[str]:
    """``words`` after a few substitutions, deletions and insertions."""
    words = list(words)
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["sub", "del", "ins"]))
        at = draw(st.integers(0, len(words)))
        if op == "ins" or not words:
            words.insert(at, draw(st.sampled_from(_WORDS)))
        elif op == "sub":
            words[min(at, len(words) - 1)] = draw(st.sampled_from(_WORDS))
        else:
            del words[min(at, len(words) - 1)]
    return words


@st.composite
def _corpora(draw) -> List[str]:
    """Near-duplicates of one or two templates, chains in which each text
    edits the one before (linked only transitively), empty and
    number-only texts, and unrelated ones; case, digits and punctuation
    vary, which normalization removes."""
    templates = [draw(st.lists(st.sampled_from(_WORDS), min_size=1,
                               max_size=20)) for _ in range(2)]
    texts: List[str] = []
    previous = templates[0]
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(
            ["variant", "variant", "chain", "empty", "numbers", "other"]))
        if kind == "variant":
            words = draw(_edited(draw(st.sampled_from(templates))))
        elif kind == "chain":
            words = previous = draw(_edited(previous))
        elif kind == "empty":
            words = draw(st.sampled_from([[], ["!!"], ["  "]]))
        elif kind == "numbers":
            words = [str(n) for n in draw(st.lists(st.integers(0, 10**6),
                                                   max_size=4))]
        else:
            words = draw(st.lists(st.sampled_from(_WORDS), max_size=12))
        text = " ".join(words)
        if draw(st.booleans()):
            text = f"{text.upper()} {draw(st.integers(0, 999))}!"
        texts.append(text)
    return texts


_threshold = st.one_of(st.sampled_from([0.88, 0.85, 0.9, 0.95, 1.0]),
                       st.floats(0.05, 1.0))


class TestReuseGroupsDifferential:
    @given(_corpora(), _threshold)
    @settings(max_examples=300, deadline=None)
    def test_groups_match_reference(self, texts, threshold):
        assert repr(reuse_groups(texts, threshold)) == repr(
            reference_reuse_groups(texts, threshold))

    def test_earlier_text_is_the_first_sequence(self):
        # SequenceMatcher is not symmetric: this pair scores 0.4 with the
        # earlier text as ``a`` and 0.53 the other way round.
        a = "alpha bravo alpha delta bravo alpha bravo"
        b = "delta bravo delta bravo alpha delta charlie delta"
        assert normalized_word_similarity(a, b) == 0.4
        assert reuse_groups([a, b], 0.5) == reference_reuse_groups([a, b], 0.5)
        assert reuse_groups([a, b], 0.5) == []

    def test_transitive_chain_bounds(self):
        # a-b and b-c link at 0.9; a-c is 0.8 and never recorded, so the
        # group's minimum is a linked pair's, as before.
        a = "w one two three four five six seven eight nine ten"
        b = "w one two three four five six seven eight nine zz"
        c = "w one two three four five six seven eight yy zz"
        texts = [a, b, c, "unrelated words entirely", "", "123 456"]
        assert repr(reuse_groups(texts, 0.9)) == repr(
            reference_reuse_groups(texts, 0.9))
        [chain, empties] = reuse_groups(texts, 0.9)
        assert chain.indices == [0, 1, 2] and empties.indices == [4, 5]
        assert empties.min_similarity == empties.max_similarity == 1.0
