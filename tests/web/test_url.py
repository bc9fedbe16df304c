"""Tests for URL handling."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.web.url import (
    join_url,
    normalize_url,
    parse_query,
    query_pairs,
    url_host,
    url_path,
)


class TestNormalize:
    def test_case_fragment_port_and_query_order(self):
        assert (
            normalize_url("HTTP://Example.COM:80/Listings/?b=2&a=1#frag")
            == "http://example.com/Listings?a=1&b=2"
        )

    def test_nondefault_port_kept(self):
        assert normalize_url("http://h.example:8080/x") == "http://h.example:8080/x"

    def test_root_path_added(self):
        assert normalize_url("http://h.example") == "http://h.example/"

    def test_trailing_slash_trimmed_on_paths(self):
        assert normalize_url("http://h.example/a/") == normalize_url("http://h.example/a")

    def test_idempotent(self):
        url = "http://h.example/a?x=1&y=2"
        assert normalize_url(normalize_url(url)) == normalize_url(url)

    @given(st.sampled_from([
        "http://a.example/x?b=1&a=2",
        "HTTP://A.EXAMPLE/x?a=2&b=1",
        "http://a.example:80/x?a=2&b=1#f",
    ]))
    @settings(max_examples=10)
    def test_property_equivalent_spellings_collapse(self, url):
        assert normalize_url(url) == "http://a.example/x?a=2&b=1"


class TestParts:
    def test_host_and_path(self):
        assert url_host("http://Foo.Example/bar") == "foo.example"
        assert url_path("http://foo.example") == "/"

    def test_join_relative(self):
        assert join_url("http://h.example/a/b", "/offer/1") == "http://h.example/offer/1"
        assert join_url("http://h.example/a/", "c") == "http://h.example/a/c"

    def test_parse_query(self):
        assert parse_query("http://h.example/?a=1&b=x") == {"a": "1", "b": "x"}

    def test_query_pairs_preserves_order(self):
        assert query_pairs("http://h.example/?b=2&a=1") == [("b", "2"), ("a", "1")]
