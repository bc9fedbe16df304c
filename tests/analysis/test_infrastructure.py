"""Tests for the scam-infrastructure (lure domain) analysis."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.infrastructure import (
    PLATFORM_DOMAINS,
    InfrastructureAnalysis,
    _DOMAIN_RE,
    extract_domains,
)
from repro.core.dataset import PostRecord

#: The domain pattern without its left anchor: the reference it must
#: agree with on every string.
REFERENCE_DOMAIN_RE = re.compile(
    r"(?:https?://)?((?:[a-z0-9][a-z0-9-]*\.)+"
    r"(?:example|com|net|io|org|xyz|link|onion))(?:/\S*)?",
    re.IGNORECASE,
)

# Labels, dots, dashes, schemes and TLD fragments, plus characters that
# IGNORECASE folds onto ASCII letters (Kelvin sign, long s) or that
# lowercase to two code points (dotted capital I).
_DOMAIN_PIECES = [
    "a", "b7", "Z", "0", "lure", "x", "secure-claim", "-", "--", ".", "..",
    "a.", "lure.", "-x.", "b7-.", "a.com", "x.example",
    "http://", "https://", "HTTPS://", "http:/", "xhttp://", "example",
    "EXAMPLE", "exampl", "com", "co", "net", "io", "org", "xyz", "link",
    "onion", "/", "/path?id=1", " ", "\n", ",", "K", "\u212a", "\u017f",
    "\u0130", "\u0131", "é", "_",
]
_domain_text = st.one_of(
    st.lists(st.sampled_from(_DOMAIN_PIECES), max_size=16).map("".join),
    st.text(alphabet="ab0-./:htpsKſİ ", max_size=30),
)


def post(text, handle="h1", platform="X"):
    return PostRecord(post_id="p", platform=platform, handle=handle, text=text)


class TestExtraction:
    def test_bare_domain(self):
        assert extract_domains("claim at secure-claim-now.example today") == [
            "secure-claim-now.example"
        ]

    def test_full_url(self):
        assert extract_domains("visit https://bonus-drop.example/claim?id=1") == [
            "bonus-drop.example"
        ]

    def test_case_folded(self):
        assert extract_domains("Go to Fast-Giveaway.EXAMPLE now") == [
            "fast-giveaway.example"
        ]

    def test_platform_domains_excluded(self):
        assert extract_domains("my profile is at x.example/handle") == []

    def test_multiple_domains(self):
        found = extract_domains("a.example and also b.example/path")
        assert found == ["a.example", "b.example"]

    def test_plain_text_has_none(self):
        assert extract_domains("no links here, just a sentence.") == []

    def test_scheme_after_a_letter(self):
        # The anchored pattern starts this match at "a.com", not at
        # "http://"; the domain it captures is the same.
        assert extract_domains("xhttp://a.com") == ["a.com"]

    @given(_domain_text)
    @settings(max_examples=600, deadline=None)
    def test_anchor_matches_reference_pattern(self, text):
        def found(pattern):
            return [(m.group(1), m.end()) for m in pattern.finditer(text)]

        assert found(_DOMAIN_RE) == found(REFERENCE_DOMAIN_RE)
        reference = [m.group(1).lower()
                     for m in REFERENCE_DOMAIN_RE.finditer(text)]
        assert extract_domains(text) == [
            domain for domain in reference if domain not in PLATFORM_DOMAINS]


class TestAggregation:
    def test_shared_infrastructure_detection(self):
        posts = [
            post("claim at bonus-drop.example", handle=f"acct{i}")
            for i in range(4)
        ] + [post("visit one-off.example", handle="solo")]
        report = InfrastructureAnalysis().run(posts)
        shared = {d.domain for d in report.shared_domains}
        assert shared == {"bonus-drop.example"}
        profile = next(d for d in report.domains if d.domain == "bonus-drop.example")
        assert profile.accounts == 4
        assert profile.posts == 4

    def test_cross_platform_footprint(self):
        posts = [
            post("go to lure.example", handle="a", platform="X"),
            post("go to lure.example", handle="b", platform="TikTok"),
        ]
        report = InfrastructureAnalysis().run(posts)
        assert report.domains[0].platforms == ("TikTok", "X")

    def test_duplicate_domains_in_one_post_count_once(self):
        posts = [post("lure.example and again lure.example")]
        report = InfrastructureAnalysis().run(posts)
        assert report.domains[0].posts == 1

    def test_empty_corpus(self):
        report = InfrastructureAnalysis().run([])
        assert report.total_domains == 0
        assert report.posts_with_domains == 0

    def test_top_domains_ordering(self):
        posts = [post("big.example", handle=f"a{i}") for i in range(5)]
        posts += [post("small.example", handle="b")]
        report = InfrastructureAnalysis().run(posts)
        assert report.top_domains(1)[0].domain == "big.example"


class TestOnStudyData:
    def test_scam_templates_produce_shared_domains(self, dataset):
        report = InfrastructureAnalysis().run(dataset.posts)
        # The scam templates cycle through a small pool of lure domains,
        # so every one of them ends up as shared infrastructure.
        assert report.total_domains >= 3
        assert report.shared_domains
        top = report.top_domains(1)[0]
        assert top.accounts >= 3
        assert len(top.platforms) >= 2  # same lure promoted across platforms

    def test_domains_come_from_scam_posts(self, dataset, world):
        report = InfrastructureAnalysis().run(dataset.posts)
        truth = {p.text: p.is_scam for a in world.accounts.values() for p in a.posts}
        lure_domains = {d.domain for d in report.shared_domains}
        # Posts mentioning shared lure domains are overwhelmingly scam.
        from repro.analysis.infrastructure import extract_domains as ed

        hits = scams = 0
        for post_record in dataset.posts:
            if set(ed(post_record.text)) & lure_domains:
                hits += 1
                if truth.get(post_record.text):
                    scams += 1
        assert hits > 0
        assert scams / hits > 0.95
