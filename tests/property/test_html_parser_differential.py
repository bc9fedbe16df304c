"""Differential tests: the canonical-grammar tokenizer against ``HTMLParser``.

``parse_html`` tokenizes the markup ``render_document`` emits with one
regex and sends anything else whole to the stdlib ``HTMLParser`` path
(``_TreeBuilder``), the reference here.  On rendered trees, on every
prefix of them (the truncated bodies a flaky server sends), with raw
entity references, and after the chaos mangler, both paths must build
the same tree: tags, attributes in order, and text nodes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.injector import _mangle
from repro.web.html import VOID_TAGS, Element, render_document
from repro.web.html_parser import _parse_canonical, parse_html
from tests.web.test_html_parser import reference_parse, tree_shape

# -- strategies --------------------------------------------------------------

#: The tags the marketplace and platform sites build with, then the void
#: tags; ``li``/``p``/``tr``/``td``/``th`` exercise the implicit close.
_TAGS = sorted({
    "a", "body", "dd", "div", "dl", "dt", "form", "h1", "head", "html",
    "label", "li", "p", "span", "table", "td", "th", "title", "tr", "ul",
}) + sorted(VOID_TAGS)
_ATTRIBUTES = ["class", "data-prop", "data-group", "data-offer-id", "href"]
#: Characters the renderer escapes, entity fragments (named, numeric,
#: unterminated, cut short), whitespace and plain text.
_PIECES = ["&", "<", ">", '"', "'", "&amp", "&amp;", "&#39;", "&copy;",
           "&copy", "&am", "&#", ";", "#", " ", "\n", "\t", "a", "Z", "9",
           "-", "/", "=", "é", "class="]
_text = st.lists(st.sampled_from(_PIECES), max_size=8).map("".join)


def _element(children) -> st.SearchStrategy:
    return st.builds(
        Element,
        st.sampled_from(_TAGS),
        st.dictionaries(st.sampled_from(_ATTRIBUTES), _text, max_size=3),
        st.lists(children, max_size=4),
    )


_trees = _element(st.recursive(_text, _element, max_leaves=10))


def _variants(tree: Element):
    """Rendered markup, its raw-entity twin and its mangled twin.

    The renderer writes every ``&`` as ``&amp;``; undoing that puts the
    fragments back as raw references (``&copy;``, ``&am``, ``&#39;``)
    that both paths must decode the same way.
    """
    markup = render_document(tree)
    return [markup, markup.replace("&amp;", "&"), _mangle(markup)]


def _assert_same_tree(markup: str) -> None:
    assert tree_shape(parse_html(markup)) == tree_shape(reference_parse(markup)), markup


class TestCanonicalTokenizer:
    @given(_trees)
    @settings(max_examples=200, deadline=None)
    def test_rendered_documents(self, tree):
        for markup in _variants(tree):
            # Rendered markup stays inside the grammar, so this compares
            # the two paths rather than the fallback with itself.
            assert _parse_canonical(markup) is not None, markup
            _assert_same_tree(markup)

    @given(_trees)
    @settings(max_examples=40, deadline=None)
    def test_every_prefix(self, tree):
        for markup in _variants(tree):
            for cut in range(len(markup)):
                _assert_same_tree(markup[:cut])
