"""Text-reuse similarity analysis (Section 4.2).

The paper "carried out a case-insensitive similarity analysis after
removing numbers and punctuation" over underground listings and found
88–100 % word similarity across reused posts.  We implement the same
normalization and measure similarity as the SequenceMatcher ratio over
word sequences, plus helpers to group a corpus into reuse groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from difflib import SequenceMatcher
from typing import Dict, List, Sequence, Tuple

from repro.util.textutil import strip_numbers, words
from repro.util.unionfind import UnionFind


def normalize_for_similarity(text: str) -> List[str]:
    """Case-folded word sequence with numbers and punctuation removed."""
    return words(strip_numbers(text))


def normalized_word_similarity(a: str, b: str) -> float:
    """Similarity in [0, 1] between two texts after normalization.

    >>> normalized_word_similarity("Selling 5 aged accounts!", "selling 99 aged accounts")
    1.0
    """
    wa, wb = normalize_for_similarity(a), normalize_for_similarity(b)
    if not wa and not wb:
        return 1.0
    return SequenceMatcher(a=wa, b=wb, autojunk=False).ratio()


@dataclass
class ReuseGroup:
    """A group of near-duplicate documents."""

    indices: List[int]
    min_similarity: float
    max_similarity: float

    @property
    def size(self) -> int:
        return len(self.indices)


def reuse_groups(texts: Sequence[str], threshold: float = 0.88) -> List[ReuseGroup]:
    """Group documents whose pairwise similarity reaches ``threshold``.

    Single-link (union-find) over all pairs.  Each text is normalized
    once.  A pair whose ``real_quick_ratio()`` or ``quick_ratio()`` is
    below ``threshold`` is skipped: difflib computes both, like
    ``ratio()``, as 2·M/T with an M no smaller than the matches, so the
    pair's ratio could not reach the threshold either.
    """
    normalized = [normalize_for_similarity(text) for text in texts]
    sets = UnionFind(len(normalized))
    # (i, similarity) of every linked pair (i, j), i < j.
    linked: List[Tuple[int, float]] = []
    # The matcher caches facts about its second sequence, so each text
    # is ``b`` once, against every earlier text as ``a``.
    matcher = SequenceMatcher(autojunk=False)
    for j, wj in enumerate(normalized):
        matcher.set_seq2(wj)
        for i in range(j):
            wi = normalized[i]
            if not wi and not wj:
                sim = 1.0
            else:
                matcher.set_seq1(wi)
                if (matcher.real_quick_ratio() < threshold
                        or matcher.quick_ratio() < threshold):
                    continue
                sim = matcher.ratio()
            if sim >= threshold:
                linked.append((i, sim))
                sets.union(i, j)
    members = sets.groups()
    # Every union recorded the pair that caused it, so every group of
    # two or more holds a linked pair.
    bounds: Dict[int, Tuple[float, float]] = {}
    for i, sim in linked:
        root = sets.find(i)
        low, high = bounds.get(root, (sim, sim))
        bounds[root] = (min(low, sim), max(high, sim))
    groups = [
        ReuseGroup(indices=indices, min_similarity=bounds[root][0],
                   max_similarity=bounds[root][1])
        for root, indices in members.items() if len(indices) >= 2
    ]
    groups.sort(key=lambda g: (-g.size, g.indices[0]))
    return groups


__all__ = ["ReuseGroup", "normalize_for_similarity", "normalized_word_similarity", "reuse_groups"]
