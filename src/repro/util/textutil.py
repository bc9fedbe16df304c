"""Text helpers shared by generators, extractors, and the NLP stack."""

from __future__ import annotations

import re
import unicodedata
from typing import List

_SLUG_RE = re.compile(r"[^a-z0-9]+")
_WS_RE = re.compile(r"\s+")
_WORD_RE = re.compile(r"[A-Za-z][A-Za-z']*")
_NUMBER_RE = re.compile(r"[\d,.]+")


def slugify(text: str) -> str:
    """Lowercase ASCII slug suitable for URLs and identifiers.

    >>> slugify("Humor/Memes & Fun!")
    'humor-memes-fun'
    """
    normalized = unicodedata.normalize("NFKD", text)
    ascii_text = normalized.encode("ascii", "ignore").decode("ascii").lower()
    return _SLUG_RE.sub("-", ascii_text).strip("-")


def collapse_whitespace(text: str) -> str:
    """Collapse runs of whitespace to single spaces and strip ends."""
    return _WS_RE.sub(" ", text).strip()


def words(text: str) -> List[str]:
    """Alphabetic word tokens, lowercased.

    Mirrors the paper's underground-listing similarity preprocessing
    ("case-insensitive similarity analysis after removing numbers and
    punctuation").
    """
    return [m.group(0).lower() for m in _WORD_RE.finditer(text)]


def strip_numbers(text: str) -> str:
    """Remove digit runs (with separators), as in the similarity analysis."""
    return collapse_whitespace(_NUMBER_RE.sub(" ", text))


def truncate(text: str, limit: int, ellipsis: str = "...") -> str:
    """Truncate to ``limit`` characters, appending an ellipsis if cut."""
    if limit < 0:
        raise ValueError("limit must be non-negative")
    if len(text) <= limit:
        return text
    if limit <= len(ellipsis):
        return text[:limit]
    return text[: limit - len(ellipsis)] + ellipsis


def compact_number(value: float) -> str:
    """Human-style compact counts used by marketplace UI (e.g. 2.1M).

    >>> compact_number(2_100_000)
    '2.1M'
    >>> compact_number(980)
    '980'
    """
    for threshold, suffix in ((1_000_000_000, "B"), (1_000_000, "M"), (1_000, "K")):
        if abs(value) >= threshold:
            scaled = value / threshold
            if scaled == int(scaled):
                return f"{int(scaled)}{suffix}"
            return f"{scaled:.1f}{suffix}"
    if value == int(value):
        return str(int(value))
    return f"{value:.1f}"


def parse_compact_number(text: str) -> int:
    """Parse marketplace-style counts back to integers.

    Accepts plain integers with separators ("1,078,130"), and compact
    suffixes ("2.1M", "69m", "13.5k").

    >>> parse_compact_number("2.1M")
    2100000
    >>> parse_compact_number("1,078,130")
    1078130
    """
    cleaned = text.strip().replace(",", "")
    if not cleaned:
        raise ValueError("empty number")
    suffix = cleaned[-1].upper()
    multipliers = {"K": 1_000, "M": 1_000_000, "B": 1_000_000_000}
    if suffix in multipliers:
        return int(float(cleaned[:-1]) * multipliers[suffix])
    return int(float(cleaned))


__all__ = [
    "collapse_whitespace",
    "compact_number",
    "parse_compact_number",
    "slugify",
    "strip_numbers",
    "truncate",
    "words",
]
