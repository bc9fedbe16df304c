"""Parse HTML markup back into the :class:`~repro.web.html.Element` tree.

Two tokenizers drive one set of tree rules (:class:`_Tree`):

* markup in the canonical grammar that
  :func:`~repro.web.html.render_document` emits — a doctype, lowercase
  start tags whose attributes are all double-quoted, end tags and text —
  is tokenized by one compiled regex (:data:`_TOKEN`);
* anything else (a truncated body, ``script``/``style``, single-quoted or
  valueless attributes, uppercase names, ``/>``, comments) goes whole
  through the stdlib :class:`html.parser.HTMLParser` (:class:`_TreeBuilder`).

The input decides which path runs, and a document never mixes them.
Both build the same tree, with the tolerance a crawler needs: unknown
entities pass through, stray close tags are ignored, and unclosed
elements are closed implicitly at the end of input.
"""

from __future__ import annotations

import re
from html import unescape
from html.parser import HTMLParser
from typing import Dict, List, Optional, Tuple

from repro.web.html import VOID_TAGS, Element

# Tags whose open implicitly closes a same-tag ancestor (enough tolerance
# for the markup our marketplaces and a typical scraped page produce).
_IMPLICIT_CLOSE = {"li", "p", "tr", "td", "th", "option"}

#: One token of the canonical grammar: text (group 1), a start tag
#: (name, attribute run), an end tag (name) or the doctype.
_TOKEN = re.compile(
    r'([^<]+)'
    r'|<([a-z][a-z0-9]*)((?: [a-z][a-z0-9-]*="[^"<>]*")*)>'
    r'|</([a-z][a-z0-9]*)>'
    r'|<!DOCTYPE html>'
)
_ATTRIBUTE = re.compile(r' ([a-z][a-z0-9-]*)="([^"<>]*)"')
#: Start tags after which ``HTMLParser`` reads raw text up to the close
#: tag; their content is not in the canonical grammar.
_RAW_TEXT = frozenset(HTMLParser.CDATA_CONTENT_ELEMENTS)


class _Tree:
    """The tree rules: an open-element stack under a ``document`` root.

    Both tokenizers pass lowercase tag names, decoded attribute values
    and decoded text.
    """

    __slots__ = ("root", "stack")

    def __init__(self) -> None:
        self.root = Element("document")
        self.stack: List[Element] = [self.root]

    def start(self, tag: str, attrs: Dict[str, str]) -> None:
        stack = self.stack
        if tag in _IMPLICIT_CLOSE and stack[-1].tag == tag:
            stack.pop()
        element = Element(tag, attrs)
        stack[-1].children.append(element)
        if tag not in VOID_TAGS:
            stack.append(element)

    def end(self, tag: str) -> None:
        stack = self.stack
        # Pop to the nearest matching open tag; ignore unmatched closers.
        for depth in range(len(stack) - 1, 0, -1):
            if stack[depth].tag == tag:
                del stack[depth:]
                return

    def text(self, data: str) -> None:
        if data.strip():
            self.stack[-1].children.append(data)


class _TreeBuilder(HTMLParser):
    """General HTML: the stdlib tokenizer driving :class:`_Tree`."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.tree = _Tree()

    def handle_starttag(self, tag: str, attrs: List[Tuple[str, Optional[str]]]) -> None:
        self.tree.start(tag, {name: (value or "") for name, value in attrs})

    def handle_startendtag(self, tag: str, attrs: List[Tuple[str, Optional[str]]]) -> None:
        # ``<tag/>`` opens nothing and closes nothing.
        self.tree.stack[-1].append(
            Element(tag, {name: (value or "") for name, value in attrs}))

    def handle_endtag(self, tag: str) -> None:
        self.tree.end(tag)

    def handle_data(self, data: str) -> None:
        self.tree.text(data)


def _parse_canonical(markup: str) -> Optional[Element]:
    """The tree of canonical ``markup``, or None if it leaves the grammar.

    Decodes text and attribute values with :func:`html.unescape`, what
    ``HTMLParser(convert_charrefs=True)`` applies.
    """
    tree = _Tree()
    start, end, text = tree.start, tree.end, tree.text
    position = 0
    for token in _TOKEN.finditer(markup):
        if token.start() != position:
            return None
        position = token.end()
        data, tag, attributes, closing = token.groups()
        if data is not None:
            text(unescape(data) if "&" in data else data)
        elif tag is not None:
            if tag in _RAW_TEXT:
                return None
            if not attributes:
                start(tag, {})
            elif "&" in attributes:
                start(tag, {name: unescape(value) for name, value
                            in _ATTRIBUTE.findall(attributes)})
            else:
                start(tag, dict(_ATTRIBUTE.findall(attributes)))
        elif closing is not None:
            end(closing)
    if position != len(markup):
        return None
    return tree.root


def parse_html(markup: str) -> Element:
    """Parse markup into an element tree rooted at a ``document`` element.

    >>> doc = parse_html('<div class="x"><a href="/p">go</a></div>')
    >>> doc.find('a').get('href')
    '/p'
    >>> doc.find('div', class_='x').text
    'go'
    """
    root = _parse_canonical(markup)
    if root is not None:
        return root
    builder = _TreeBuilder()
    builder.feed(markup)
    builder.close()
    return builder.tree.root


__all__ = ["parse_html"]
