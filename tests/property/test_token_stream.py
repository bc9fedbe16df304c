"""The token stream against ``tokenize``, call for call.

Every row's tokens must be ``tokenize(text, keep_handles=True)`` and its
words ``tokenize(text)``, for texts with duplicates, ``None``, handles,
URLs, digits, apostrophes and non-ASCII letters, and each distinct text
must cost exactly one ``tokenize`` call.
"""

from __future__ import annotations

import importlib
import random
import tracemalloc
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlp.tokenize import TokenStream, tokenize

# ``repro.nlp.tokenize`` the module: the package re-exports the function
# under the same name.
tokenize_module = importlib.import_module("repro.nlp.tokenize")

_PIECES = [
    "crypto", "Profit", "it's", "don't", "'quoted'", "#crypto", "#a_b",
    "#a", "b", "@seller.shop", "@x", "@", "#", "https://x.example/p",
    "www.y.com/z", "pay.onion", "42", "x2", "2024-01-01", "café", "naïve",
    "İstanbul", "straße", "😀", "DM", "NOW!!", "", " ", "\t\n", "a1b",
]
_text = st.one_of(
    st.none(),
    st.text(max_size=30),
    st.lists(st.sampled_from(_PIECES), max_size=12).map(" ".join),
    st.lists(st.sampled_from(_PIECES), max_size=8).map("".join),
)


def _spelled(stream, ids):
    return [stream.tokens[i] for i in ids]


class TestTokenStream:
    @given(st.lists(_text, max_size=25), st.data())
    @settings(max_examples=300, deadline=None)
    def test_rows_match_tokenize_once_per_text(self, texts, data):
        # Duplicates: some texts drawn again, in another order.
        if texts:
            texts = texts + data.draw(st.lists(st.sampled_from(texts),
                                               max_size=10))
        calls: Counter = Counter()
        real = tokenize_module.tokenize

        def counting(text, keep_handles=False):
            calls[text] += 1
            return real(text, keep_handles)

        tokenize_module.tokenize = counting
        try:
            stream = TokenStream()
            docs = stream.documents(texts)
            again = stream.documents(reversed(texts))
        finally:
            tokenize_module.tokenize = real
        assert calls == Counter(set(texts))
        assert list(again.rows) == list(reversed(docs.rows))
        words = docs.words()
        for d, text in enumerate(texts):
            assert _spelled(stream, docs[d]) == tokenize(text, keep_handles=True)
            assert _spelled(stream, words[d]) == tokenize(text)
        assert len(set(stream.tokens)) == len(stream.tokens)
        for view in (docs, words):
            ids, offsets = view.flat()
            assert ids.dtype == np.intc and offsets[0] == 0
            assert [list(ids[a:b]) for a, b in zip(offsets, offsets[1:])] \
                == [list(view[d]) for d in range(len(view))]
            start = data.draw(st.integers(0, len(view)))
            part, part_offsets = view.flat(start, start + 3)
            assert list(part) == list(ids[offsets[start]:offsets[min(
                start + 3, len(view))]])
            assert len(part_offsets) == len(view.rows[start:start + 3]) + 1


def _templated_texts(n: int):
    """Post-like texts from four templates: hashtags, mentions, URLs,
    numbers and apostrophes, nearly all distinct."""
    rng = random.Random(5)
    adjectives = ["guaranteed", "daily", "fast", "organic", "verified",
                  "exclusive", "limited", "huge"]
    nouns = ["profit", "giveaway", "followers", "signals", "bonus", "wallet",
             "accounts", "payout"]
    tags = ["crypto", "bitcoin", "forex", "nft", "giveaway", "money"]
    templates = [
        "{a} {n} every day, join now and claim your {m} before it ends #{t} @{h}",
        "thank you all for {c} followers! new {n} video this week #{t}",
        "DM @{h} for {a} {n} and {b} {m}, only {c} spots left "
        "https://x.example/{c}",
        "we're giving away {c} {n} to the first people who follow and "
        "share #{t} #{u}",
    ]
    return [rng.choice(templates).format(
        a=rng.choice(adjectives), b=rng.choice(adjectives),
        n=rng.choice(nouns), m=rng.choice(nouns), t=rng.choice(tags),
        u=rng.choice(tags), h=f"seller{rng.randint(0, 500)}",
        c=rng.randint(1, 100_000)) for _ in range(n)]


class TestStreamMemory:
    def test_retains_at_most_12_bytes_a_token(self):
        # The stream lives across the clusterer, which sets the suite's
        # peak.  int32 ids, row bounds and the text-to-row index retain
        # 9.2 bytes a token here; a tuple of shared token strings per text
        # retains 17, and lists of fresh strings 131.
        texts = _templated_texts(20_000)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            stream = TokenStream()
            stream.documents(texts)
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        held = len(stream._ids)
        assert held == sum(len(tokenize(text, keep_handles=True))
                           for text in set(texts))
        assert retained <= 12 * held
