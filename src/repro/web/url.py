"""URL normalization, joining, and inspection.

Thin, explicit wrappers over :mod:`urllib.parse` so the rest of the code
never manipulates URL strings by hand.  Normalization matters for the
crawler's offer and seller dedup: two spellings of the same page must
dedup to one key.
"""

from __future__ import annotations

from typing import Dict, List, Tuple
from urllib.parse import parse_qsl, urlencode, urljoin, urlsplit, urlunsplit


def normalize_url(url: str) -> str:
    """Return a canonical form of ``url`` for crawl deduplication.

    Lowercases scheme and host, drops fragments and default ports, removes
    trailing slashes on non-root paths, and sorts query parameters.

    >>> normalize_url("HTTP://Example.COM:80/Listings/?b=2&a=1#frag")
    'http://example.com/Listings?a=1&b=2'
    """
    parts = urlsplit(url)
    scheme = parts.scheme.lower()
    host = parts.hostname.lower() if parts.hostname else ""
    port = parts.port
    default_ports = {"http": 80, "https": 443}
    netloc = host
    if port is not None and default_ports.get(scheme) != port:
        netloc = f"{host}:{port}"
    path = parts.path or "/"
    if len(path) > 1 and path.endswith("/"):
        path = path.rstrip("/")
    query_pairs = sorted(parse_qsl(parts.query, keep_blank_values=True))
    query = urlencode(query_pairs)
    return urlunsplit((scheme, netloc, path, query, ""))


def join_url(base: str, link: str) -> str:
    """Resolve ``link`` (possibly relative) against ``base``."""
    return urljoin(base, link)


def url_host(url: str) -> str:
    """Hostname of ``url``, lowercased ('' if absent)."""
    host = urlsplit(url).hostname
    return host.lower() if host else ""


def url_path(url: str) -> str:
    """Path component of ``url`` ('/' if absent)."""
    return urlsplit(url).path or "/"


def parse_query(url: str) -> Dict[str, str]:
    """Query parameters as a dict (last value wins on duplicates)."""
    return dict(parse_qsl(urlsplit(url).query, keep_blank_values=True))


def query_pairs(url: str) -> List[Tuple[str, str]]:
    """Query parameters as ordered pairs."""
    return parse_qsl(urlsplit(url).query, keep_blank_values=True)


__all__ = [
    "join_url",
    "normalize_url",
    "parse_query",
    "query_pairs",
    "url_host",
    "url_path",
]
