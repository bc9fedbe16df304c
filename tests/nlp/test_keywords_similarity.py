"""Tests for c-TF-IDF keywords and the reuse-similarity analysis."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlp.keywords import class_tfidf_keywords
from repro.nlp.tokenize import TokenStream
from repro.nlp.similarity import (
    normalize_for_similarity,
    normalized_word_similarity,
    reuse_groups,
)


def _words(texts):
    return TokenStream().documents(texts).words()


class TestKeywords:
    def test_distinctive_terms_rank_high(self):
        texts = [
            "bitcoin trading profit guaranteed bitcoin invest",
            "bitcoin mining profit payout invest deposit",
            "cute puppy garden morning walk sunshine",
            "puppy kitten garden animals sunshine play",
        ]
        labels = [0, 0, 1, 1]
        keywords = class_tfidf_keywords(_words(texts), labels, top_n=5)
        crypto_terms = {t for t, _s in keywords[0]}
        pet_terms = {t for t, _s in keywords[1]}
        assert "bitcoin" in crypto_terms
        assert "puppy" in pet_terms
        assert "puppy" not in crypto_terms

    def test_noise_excluded(self):
        keywords = class_tfidf_keywords(_words(["a b", "c d"]), [-1, 0])
        assert -1 not in keywords
        assert 0 in keywords

    def test_shared_terms_downweighted(self):
        texts = ["common alpha alpha", "common beta beta"]
        keywords = class_tfidf_keywords(_words(texts), [0, 1], top_n=2)
        assert keywords[0][0][0] == "alpha"
        assert keywords[1][0][0] == "beta"

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError):
            class_tfidf_keywords(_words(["a"]), [0, 1])


class TestSimilarity:
    def test_numbers_and_case_ignored(self):
        assert normalized_word_similarity(
            "Selling 5 aged ACCOUNTS!", "selling 99 aged accounts"
        ) == 1.0

    def test_unrelated_texts_low(self):
        sim = normalized_word_similarity(
            "selling aged tiktok accounts bulk discount",
            "the weather in the mountains is lovely today",
        )
        assert sim < 0.3

    def test_normalize(self):
        assert normalize_for_similarity("Hello, 42 worlds!") == ["hello", "worlds"]

    def test_empty_texts_are_identical(self):
        assert normalized_word_similarity("123", "456") == 1.0

    @given(st.text(alphabet="abcdef ghij", min_size=1, max_size=80))
    @settings(max_examples=40)
    def test_property_self_similarity_is_one(self, text):
        assert normalized_word_similarity(text, text) == 1.0

    @given(
        st.text(alphabet="abcdef ghij", max_size=60),
        st.text(alphabet="abcdef ghij", max_size=60),
    )
    @settings(max_examples=40)
    def test_property_symmetric(self, a, b):
        assert normalized_word_similarity(a, b) == pytest.approx(
            normalized_word_similarity(b, a)
        )


class TestReuseGroups:
    def test_groups_near_duplicates(self):
        base = "selling aged tiktok accounts with organic followers contact telegram"
        texts = [
            base,
            base.replace("organic", "real"),
            "completely different text about gardening and flowers in spring",
        ]
        groups = reuse_groups(texts, threshold=0.85)
        assert len(groups) == 1
        assert groups[0].indices == [0, 1]
        assert groups[0].min_similarity >= 0.85

    def test_no_groups_for_distinct_corpus(self):
        texts = [
            "alpha beta gamma delta epsilon",
            "one two three four five six",
            "red orange yellow green blue",
        ]
        assert reuse_groups(texts, threshold=0.88) == []

    def test_transitive_linking(self):
        a = "w1 w2 w3 w4 w5 w6 w7 w8 w9 w10"
        b = "w1 w2 w3 w4 w5 w6 w7 w8 w9 zz"  # 90% of a
        c = "w1 w2 w3 w4 w5 w6 w7 w8 yy zz"  # 90% of b, 80% of a
        groups = reuse_groups([a, b, c], threshold=0.9)
        assert len(groups) == 1
        assert groups[0].indices == [0, 1, 2]

    def test_groups_sorted_by_size(self):
        base1 = "aaa bbb ccc ddd eee fff ggg hhh"
        base2 = "one two three four five six seven eight"
        texts = [base1, base1, base1, base2, base2,
                 "unrelated filler words here entirely different"]
        groups = reuse_groups(texts, threshold=0.95)
        assert [g.size for g in groups] == [3, 2]
