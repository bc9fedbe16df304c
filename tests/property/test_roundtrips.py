"""Property-based roundtrip tests across subsystem boundaries.

These pin an invariant the pipeline depends on: whatever a site
renders, the parser recovers.  Dataset persistence roundtrips live in
``test_dataset_roundtrip.py``.
"""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.web.html import E, Element, document, render_document
from repro.web.html_parser import parse_html

# -- strategies --------------------------------------------------------------

_text = st.text(
    alphabet=string.ascii_letters + string.digits + " .,!?&<>\"'-",
    min_size=1, max_size=40,
).filter(lambda s: s.strip())

_attr_value = st.text(
    alphabet=string.ascii_letters + string.digits + " -_/.",
    max_size=20,
)

# Excludes tags with implicit-close semantics (p, li): nesting <p><p>
# is invalid HTML and the parser correctly refuses to roundtrip it
# (the implicit close is tested explicitly in test_html_parser).
_tag = st.sampled_from(["div", "span", "section", "article", "em"])


def _element(children) -> st.SearchStrategy:
    return st.builds(
        lambda tag, attrs, kids: Element(tag, attrs, kids),
        _tag,
        st.dictionaries(
            st.sampled_from(["class", "id", "data-x", "title"]),
            _attr_value, max_size=3,
        ),
        st.lists(children, max_size=4),
    )


_tree = st.recursive(_text.map(str), _element, max_leaves=12)


def _normalized_children(node):
    """Children with whitespace-only text dropped and adjacent text
    merged (the parser cannot distinguish '0' + '0' from '00')."""
    output = []
    for child in node.children:
        if isinstance(child, str):
            if not child.strip():
                continue
            if output and isinstance(output[-1], str):
                output[-1] = output[-1] + child
                continue
        output.append(child)
    return output


def _equivalent(a, b) -> bool:
    """Structural equality modulo whitespace/text-node normalization."""
    if isinstance(a, str) or isinstance(b, str):
        return (
            isinstance(a, str) and isinstance(b, str)
            and "".join(a.split()) == "".join(b.split())
        )
    if a.tag != b.tag or a.attrs != b.attrs:
        return False
    a_kids = _normalized_children(a)
    b_kids = _normalized_children(b)
    if len(a_kids) != len(b_kids):
        return False
    return all(_equivalent(x, y) for x, y in zip(a_kids, b_kids))


class TestHtmlRoundtrip:
    @given(_tree)
    @settings(max_examples=120)
    def test_render_parse_roundtrip(self, node):
        doc = document("t", node if isinstance(node, Element) else E.p(node))
        parsed = parse_html(render_document(doc))
        body = parsed.find("body")
        original_body = doc.find("body")
        assert _equivalent(original_body, body)

    @given(_text)
    @settings(max_examples=80)
    def test_text_survives_escaping(self, text):
        doc = document("t", E.p(text))
        parsed = parse_html(render_document(doc))
        assert parsed.find("p").text.split() == text.split()

    @given(st.dictionaries(st.sampled_from(["href", "class", "data-k"]),
                           _attr_value, min_size=1, max_size=3))
    @settings(max_examples=80)
    def test_attributes_survive(self, attrs):
        doc = document("t", Element("a", attrs, ["link"]))
        parsed = parse_html(render_document(doc))
        anchor = parsed.find("a")
        assert anchor.attrs == attrs
