"""Tests for the hashed TF-IDF embedder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nlp.embeddings import HashedTfidfEmbedder
from repro.nlp.tokenize import TokenStream


def _docs(texts):
    return TokenStream().documents(texts)


class TestEmbedder:
    def test_rows_are_unit_norm(self):
        texts = ["crypto trading profit", "follow and subscribe now", ""]
        matrix = HashedTfidfEmbedder(dims=64).fit_transform(_docs(texts))
        norms = np.linalg.norm(matrix, axis=1)
        assert norms[0] == pytest.approx(1.0)
        assert norms[1] == pytest.approx(1.0)
        assert norms[2] == 0.0  # empty text stays zero

    def test_identical_texts_identical_vectors(self):
        texts = ["selling aged accounts cheap", "selling aged accounts cheap"]
        matrix = HashedTfidfEmbedder(dims=64).fit_transform(_docs(texts))
        assert np.allclose(matrix[0], matrix[1])

    def test_similar_texts_closer_than_dissimilar(self):
        texts = [
            "guaranteed profit trading bitcoin invest now",
            "guaranteed profit trading ethereum invest today",
            "cute puppy playing in the garden this morning",
        ]
        matrix = HashedTfidfEmbedder(dims=128).fit_transform(_docs(texts))
        sims = matrix @ matrix.T  # cosine similarity: rows are unit-norm
        assert sims[0, 1] > sims[0, 2]

    def test_transform_without_fit_uses_flat_idf(self):
        embedder = HashedTfidfEmbedder(dims=64)
        matrix = embedder.transform(_docs(["crypto profit now"]))
        assert np.linalg.norm(matrix[0]) == pytest.approx(1.0)

    def test_deterministic_hashing(self):
        texts = ["one two three"]
        a = HashedTfidfEmbedder(dims=64).fit_transform(_docs(texts))
        b = HashedTfidfEmbedder(dims=64).fit_transform(_docs(texts))
        assert np.array_equal(a, b)

    def test_dims_validated(self):
        with pytest.raises(ValueError):
            HashedTfidfEmbedder(dims=4)

    @given(st.lists(st.text(alphabet="abcdefg ", min_size=1, max_size=40),
                    min_size=1, max_size=10))
    @settings(max_examples=30)
    def test_property_norms_at_most_one(self, texts):
        matrix = HashedTfidfEmbedder(dims=32).fit_transform(_docs(texts))
        norms = np.linalg.norm(matrix, axis=1)
        assert np.all(norms <= 1.0 + 1e-9)

