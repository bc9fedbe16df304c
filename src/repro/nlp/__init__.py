"""The NLP stack behind the Section-6 scam-post analysis.

The paper's pipeline was: CLD2 language filter -> stopword removal ->
all-mpnet-base-v2 sentence embeddings -> UMAP -> HDBSCAN -> KeyBERT
keywords -> manual cluster vetting.  Pretrained models are unavailable
offline, so each stage has an equivalent implemented from scratch:

* :mod:`repro.nlp.langdetect` — letter unigram/bigram profile language
  classifier;
* :mod:`repro.nlp.tokenize` / :mod:`repro.nlp.stopwords` — tokenizer,
  the token stream that tokenizes each distinct text once for every
  consumer, and English stopword filtering;
* :mod:`repro.nlp.embeddings` — hashed TF-IDF embeddings (token unigrams
  + bigrams, no character n-grams), L2-normalized;
* :mod:`repro.nlp.cluster` — DBSCAN for small corpora and a scalable
  density-merged k-means for large ones, both over the unreduced
  embeddings (UMAP has no counterpart);
* :mod:`repro.nlp.keywords` — class-based TF-IDF keyword extraction
  (the BERTopic/KeyBERT role);
* :mod:`repro.nlp.similarity` — normalized word-sequence similarity for
  the underground listing-reuse analysis, with pairs that cannot reach
  the threshold skipped on difflib's upper bounds.
"""

from repro.nlp.cluster import DBSCAN, ScalableDensityClusterer
from repro.nlp.embeddings import HashedTfidfEmbedder
from repro.nlp.keywords import class_tfidf_keywords
from repro.nlp.langdetect import LanguageDetector
from repro.nlp.similarity import normalized_word_similarity, reuse_groups
from repro.nlp.stopwords import STOPWORDS, remove_stopwords
from repro.nlp.tokenize import TokenStream, tokenize

__all__ = [
    "DBSCAN",
    "HashedTfidfEmbedder",
    "LanguageDetector",
    "STOPWORDS",
    "ScalableDensityClusterer",
    "TokenStream",
    "class_tfidf_keywords",
    "normalized_word_similarity",
    "remove_stopwords",
    "reuse_groups",
    "tokenize",
]
