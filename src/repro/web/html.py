"""An HTML element tree with a builder API and a renderer.

Marketplace sites in :mod:`repro.marketplaces` build pages with this tree
and serve the rendered HTML; the crawler parses it back with
:mod:`repro.web.html_parser`.  Keeping generation and parsing separate (the
crawler never sees element objects, only markup) preserves the real
pipeline's failure modes: the extractor must find fields in markup, not in
convenient data structures.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Union

VOID_TAGS = frozenset(
    {"area", "base", "br", "col", "embed", "hr", "img", "input", "link", "meta", "source", "track", "wbr"}
)

Node = Union["Element", str]


def escape_html(text: str) -> str:
    """Escape text for safe inclusion in HTML content."""
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def unescape_html(text: str) -> str:
    """Reverse :func:`escape_html` (covers the entities we emit)."""
    return (
        text.replace("&quot;", '"')
        .replace("&gt;", ">")
        .replace("&lt;", "<")
        .replace("&#39;", "'")
        .replace("&amp;", "&")
    )


class Element:
    """A single HTML element with attributes and child nodes.

    Children are either ``Element`` instances or plain strings (text).
    """

    __slots__ = ("tag", "attrs", "children")

    def __init__(
        self,
        tag: str,
        attrs: Optional[Dict[str, str]] = None,
        children: Optional[List[Node]] = None,
    ) -> None:
        # The element takes ownership of ``attrs`` and ``children``: the
        # parser and the builder hand over fresh containers.
        self.tag = tag.lower()
        self.attrs: Dict[str, str] = {} if attrs is None else attrs
        self.children: List[Node] = [] if children is None else children

    # -- construction -------------------------------------------------------

    def append(self, node: Node) -> "Element":
        self.children.append(node)
        return self

    def extend(self, nodes: Sequence[Node]) -> "Element":
        self.children.extend(nodes)
        return self

    # -- inspection ---------------------------------------------------------

    def get(self, name: str, default: str = "") -> str:
        return self.attrs.get(name, default)

    @property
    def classes(self) -> List[str]:
        return self.attrs.get("class", "").split()

    def has_class(self, name: str) -> bool:
        return name in self.classes

    def iter(self) -> Iterator["Element"]:
        """Depth-first iteration over this element and all descendants.

        The walk keeps an explicit stack of child iterators, so yielding
        a deep element costs one generator resume, not one per ancestor.
        """
        yield self
        stack = [iter(self.children)]
        while stack:
            for child in stack[-1]:
                if isinstance(child, Element):
                    yield child
                    stack.append(iter(child.children))
                    break
            else:
                stack.pop()

    def _matches(
        self, tag: Optional[str], class_: Optional[str], attrs: Dict[str, str]
    ) -> Iterator["Element"]:
        """The elements of :meth:`iter` that match tag / class / attrs."""
        if tag is not None:
            tag = tag.lower()
        for el in self.iter():
            if tag is not None and el.tag != tag:
                continue
            # has_class, inlined: this runs for every element a query walks.
            if class_ is not None and class_ not in el.attrs.get("class", "").split():
                continue
            if attrs and any(el.attrs.get(k) != v for k, v in attrs.items()):
                continue
            yield el

    def find_all(
        self,
        tag: Optional[str] = None,
        class_: Optional[str] = None,
        **attrs: str,
    ) -> List["Element"]:
        """All descendants (including self) matching tag / class / attrs."""
        return list(self._matches(tag, class_, attrs))

    def find(
        self,
        tag: Optional[str] = None,
        class_: Optional[str] = None,
        **attrs: str,
    ) -> Optional["Element"]:
        """First match of :meth:`find_all`, or None."""
        return next(self._matches(tag, class_, attrs), None)

    @property
    def text(self) -> str:
        """Concatenated text of all descendant text nodes."""
        return text_of(self)

    def links(self) -> List[str]:
        """All href values of descendant anchors."""
        return [a.get("href") for a in self.find_all("a") if a.get("href")]

    # -- rendering ----------------------------------------------------------

    def render(self, indent: int = 0, pretty: bool = False) -> str:
        """Render this subtree to HTML markup."""
        pad = "  " * indent if pretty else ""
        nl = "\n" if pretty else ""
        attr_text = "".join(
            f' {name}="{escape_html(value)}"' for name, value in self.attrs.items()
        )
        open_tag = f"{pad}<{self.tag}{attr_text}>"
        if self.tag in VOID_TAGS:
            return open_tag + nl
        parts = [open_tag, nl]
        for child in self.children:
            if isinstance(child, Element):
                parts.append(child.render(indent + 1, pretty=pretty))
            else:
                child_pad = "  " * (indent + 1) if pretty else ""
                parts.append(f"{child_pad}{escape_html(str(child))}{nl}")
        parts.append(f"{pad}</{self.tag}>{nl}")
        return "".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Element {self.tag} attrs={self.attrs} children={len(self.children)}>"


def text_of(node: Node) -> str:
    """Text content of a node tree, whitespace-joined."""
    if isinstance(node, str):
        return node
    pieces = [text_of(child) for child in node.children]
    return " ".join(p for p in (piece.strip() for piece in pieces) if p)


class _Builder:
    """Terse element construction: ``E.div(E.a('x', href='/y'), class_='c')``.

    Keyword arguments become attributes; trailing underscores are stripped
    so reserved words work (``class_`` -> ``class``); underscores map to
    hyphens for ``data_*`` attributes.
    """

    def __getattr__(self, tag: str):
        def make(*children: Node, **attrs: str) -> Element:
            fixed = {}
            for name, value in attrs.items():
                name = name.rstrip("_")
                if name.startswith("data_"):
                    name = name.replace("_", "-")
                fixed[name] = str(value)
            return Element(tag, fixed, list(children))

        return make


E = _Builder()


def document(title: str, *body_children: Node, lang: str = "en") -> Element:
    """A complete HTML document with the given title and body content."""
    return E.html(
        E.head(E.title(title), E.meta(charset="utf-8")),
        E.body(*body_children),
        lang=lang,
    )


def render_document(doc: Element) -> str:
    """Render a full document with doctype."""
    return "<!DOCTYPE html>\n" + doc.render()


__all__ = [
    "E",
    "Element",
    "Node",
    "VOID_TAGS",
    "document",
    "escape_html",
    "render_document",
    "text_of",
    "unescape_html",
]
