"""Tests for the tolerant HTML parser."""

import pytest

from repro.core import Study, StudyConfig
from repro.web import html_parser
from repro.web.html_parser import _parse_canonical, _TreeBuilder, parse_html


def reference_parse(markup):
    """The tree the stdlib ``HTMLParser`` path builds for ``markup``."""
    builder = _TreeBuilder()
    builder.feed(markup)
    builder.close()
    return builder.tree.root


def tree_shape(node):
    """Tag, attributes in order, and children, recursively."""
    if isinstance(node, str):
        return node
    return (node.tag, list(node.attrs.items()),
            [tree_shape(child) for child in node.children])


def takes_canonical_path(markup):
    return _parse_canonical(markup) is not None


class TestBasicParsing:
    def test_attributes(self):
        tree = parse_html('<div id="x" class="a b">text</div>')
        div = tree.find("div")
        assert div.get("id") == "x"
        assert div.classes == ["a", "b"]

    def test_nested_structure(self):
        tree = parse_html("<ul><li><a href='/1'>one</a></li><li>two</li></ul>")
        assert len(tree.find_all("li")) == 2
        assert tree.find("a").get("href") == "/1"

    def test_entities_decoded(self):
        tree = parse_html("<p>a &amp; b &lt;c&gt;</p>")
        assert tree.find("p").text == "a & b <c>"

    def test_doctype_ignored(self):
        tree = parse_html("<!DOCTYPE html><html><body><p>x</p></body></html>")
        assert tree.find("p").text == "x"

    def test_self_closing(self):
        tree = parse_html('<div><input type="text"/><br></div>')
        assert tree.find("input").get("type") == "text"


class TestTolerance:
    def test_unclosed_tags_close_at_eof(self):
        tree = parse_html("<div><p>one<p>two")
        assert len(tree.find_all("p")) == 2

    def test_implicit_li_close(self):
        tree = parse_html("<ul><li>a<li>b<li>c</ul>")
        items = tree.find_all("li")
        assert [li.text for li in items] == ["a", "b", "c"]

    def test_stray_close_tag_ignored(self):
        tree = parse_html("<div>x</span></div>")
        assert tree.find("div").text == "x"

    def test_attribute_without_value(self):
        tree = parse_html("<input disabled>")
        assert tree.find("input").get("disabled") == ""

    def test_whitespace_only_text_dropped(self):
        tree = parse_html("<div>\n   \n<p>x</p></div>")
        assert tree.find("div").text == "x"

    def test_table_rows(self):
        tree = parse_html(
            "<table><tr><th>Price</th><td>$5</td></tr>"
            "<tr><th>Platform</th><td>X</td></tr></table>"
        )
        rows = tree.find_all("tr")
        assert len(rows) == 2
        assert rows[0].find("td").text == "$5"

    def test_empty_input(self):
        tree = parse_html("")
        assert tree.tag == "document"
        assert tree.children == []


class TestParsePaths:
    """Which tokenizer each input takes, and that both build one tree."""

    @pytest.mark.parametrize("markup", [
        "<div><p>one<p>two",
        "<ul><li>a<li>b<li>c</ul>",
        "<div>x</span></div>",
        "<p>a &amp; b &lt;c&gt;</p>",
        "<p>&copy; &#39;q&#39; &am &amp</p>",
        '<a href="/x?a=1&amp;b=2" href="/last">x</a>',
        "<!DOCTYPE html><html><body><p>x</p></body></html>",
        "<div>\n   \n<p>x</p></div>",
        "<table><tr><th>Price</th><td>$5</td></tr>"
        "<tr><th>Platform</th><td>X</td></tr></table>",
        '<div class="a b" data-x="">text',
        "<br></br></div>",
        "text only &amp",
        "",
    ])
    def test_canonical_path(self, markup):
        assert takes_canonical_path(markup)
        assert tree_shape(parse_html(markup)) == tree_shape(reference_parse(markup))

    @pytest.mark.parametrize("markup", [
        "<input disabled>",                                     # valueless attribute
        '<div><input type="text"/><br></div>',                  # />
        "<ul><li><a href='/1'>one</a></li><li>two</li></ul>",   # single quotes
        "<a href=/1>one</a>",                                   # unquoted value
        "<DIV>x</DIV>",                                         # uppercase names
        "<Div>x<Br>y",
        '<div CLASS="x">y</div>',
        "<!doctype html><p>x</p>",
        "<div><!-- note --><p>x</p></div>",                     # comment
        "<p>1 < 2</p>",                                         # raw "<" in text
        '<div class="a',                                        # truncated tag
        "<div><scr",
        "<div><script>if (a < b) x = '&amp;';</script></div>",  # raw text
        "<style>p > a { }</style><p>x</p>",
        "</ div><p>x</p >",
    ])
    def test_fallback_path(self, markup):
        assert not takes_canonical_path(markup)
        assert tree_shape(parse_html(markup)) == tree_shape(reference_parse(markup))

    def test_study_pages_take_the_canonical_path(self, monkeypatch):
        # Every page the substrate serves is in the canonical grammar; a
        # render change that leaves it would silently slow the crawl
        # down to the stdlib path, so it fails here instead.
        built = []
        canonical = []

        class CountingBuilder(_TreeBuilder):
            def __init__(self):
                super().__init__()
                built.append(self)

        def counting_canonical(markup):
            canonical.append(markup)
            return _parse_canonical(markup)

        monkeypatch.setattr(html_parser, "_TreeBuilder", CountingBuilder)
        monkeypatch.setattr(html_parser, "_parse_canonical", counting_canonical)
        result = Study(StudyConfig(seed=99, scale=0.01, iterations=2)).run()
        assert result.dataset.listings
        assert len(canonical) > 100
        assert built == []
