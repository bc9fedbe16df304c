"""An in-process web substrate.

The paper's crawler drove real marketplace websites with Selenium and the
Chrome DevTools Protocol.  Re-crawling live account-trading sites is out of
scope (gated data, ethics), so this package provides the substrate the
reproduction crawls instead:

* :mod:`repro.web.http` — request/response primitives and error types;
* :mod:`repro.web.url` — URL normalization and joining;
* :mod:`repro.web.html` — an HTML element tree with a builder and renderer;
* :mod:`repro.web.html_parser` — an HTML parser back into the element tree,
  with a small query API the extractor uses;
* :mod:`repro.web.server` — virtual hosts, routing, and the
  :class:`~repro.web.server.Internet` that maps hostnames to sites;
* :mod:`repro.web.client` — an HTTP client with cookies, redirects,
  robots.txt compliance, timeouts, and retry/backoff, metered on a
  simulated clock;
* :mod:`repro.web.breaker` — the per-host circuit breaker the client
  uses to fast-fail hosts that keep erroring;
* :mod:`repro.web.robots` — robots.txt parsing and checking;
* :mod:`repro.web.captcha` — the CAPTCHA gate underground forums put in
  front of their content.

The crawler in :mod:`repro.crawler` sees exactly the same surface it would
against the real web: URLs, status codes, HTML.
"""

from repro.web.breaker import CircuitBreaker
from repro.web.client import HttpClient
from repro.web.html import Element, E, escape_html, text_of
from repro.web.html_parser import parse_html
from repro.web.http import (
    CircuitOpen,
    ConnectionFailed,
    HttpError,
    Request,
    RequestTimeout,
    Response,
    TooManyRedirects,
    parse_retry_after,
)
from repro.web.server import Internet, Route, Site
from repro.web.url import join_url, normalize_url, parse_query, url_host, url_path

__all__ = [
    "CircuitBreaker",
    "CircuitOpen",
    "ConnectionFailed",
    "E",
    "Element",
    "HttpClient",
    "HttpError",
    "Internet",
    "Request",
    "RequestTimeout",
    "Response",
    "Route",
    "Site",
    "TooManyRedirects",
    "parse_retry_after",
    "escape_html",
    "join_url",
    "normalize_url",
    "parse_html",
    "parse_query",
    "text_of",
    "url_host",
    "url_path",
]
