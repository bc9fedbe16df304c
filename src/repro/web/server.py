"""In-process virtual hosts and the Internet that connects them.

A :class:`Site` owns a hostname, a routing table, an optional robots.txt,
and simulated latency.  The :class:`Internet` resolves hostnames to sites
and dispatches requests; the client in :mod:`repro.web.client` talks only
to the Internet, exactly as a real crawler talks only to sockets.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.util.simtime import SimClock
from repro.web import http
from repro.web.http import ConnectionFailed, Request, Response
from repro.web.url import parse_query, url_host, url_path

Handler = Callable[[Request], Response]

_PARAM_RE = re.compile(r"<([a-zA-Z_][a-zA-Z0-9_]*)>")


@dataclass
class Route:
    """One route: method + path pattern with ``<param>`` segments."""

    method: str
    pattern: str
    handler: Handler

    def __post_init__(self) -> None:
        parts = []
        for token in re.split(r"(<[a-zA-Z_][a-zA-Z0-9_]*>)", self.pattern):
            match = _PARAM_RE.fullmatch(token)
            if match:
                # One path segment, at least one character: an empty
                # segment (``/listing//view``) is not a parameter value.
                parts.append(f"(?P<{match.group(1)}>[^/]+)")
            else:
                parts.append(re.escape(token))
        self._regex = re.compile("^" + "".join(parts) + "$")

    def match_path(self, path: str) -> Optional[Dict[str, str]]:
        """Match the path alone (any method); used for 405 detection."""
        found = self._regex.match(path)
        if not found:
            return None
        params = found.groupdict()
        if any(not value for value in params.values()):
            return None
        return params

    def match(self, method: str, path: str) -> Optional[Dict[str, str]]:
        if method != self.method:
            return None
        return self.match_path(path)


class Site:
    """A virtual host: routes, robots.txt, latency."""

    def __init__(
        self,
        host: str,
        clock: Optional[SimClock] = None,
        latency_seconds: float = 0.15,
        robots_text: Optional[str] = None,
    ) -> None:
        self.host = host.lower()
        self.clock = clock or SimClock()
        self.latency_seconds = latency_seconds
        self.robots_text = robots_text
        self._routes: List[Route] = []
        self.request_count = 0
        if robots_text is not None:
            self.route("GET", "/robots.txt", self._serve_robots)

    # -- routing ------------------------------------------------------------

    def route(self, method: str, pattern: str, handler: Handler) -> None:
        self._routes.append(Route(method.upper(), pattern, handler))

    def _serve_robots(self, request: Request) -> Response:
        return Response(
            status=http.OK,
            body=self.robots_text or "",
            headers={"Content-Type": "text/plain"},
        )

    # -- dispatch -----------------------------------------------------------

    def handle(self, request: Request, client_id: str = "anon") -> Response:
        """Dispatch one request to this site.  ``client_id`` names the
        caller; every client is served alike."""
        self.request_count += 1
        path = url_path(request.url)
        request.params = {**parse_query(request.url), **request.params}
        allowed_methods: List[str] = []
        for route in self._routes:
            params = route.match_path(path)
            if params is None:
                continue
            if route.method != request.method:
                allowed_methods.append(route.method)
                continue
            request.path_params = params
            try:
                response = route.handler(request)
            except http.HttpError:
                raise
            except Exception as exc:  # site bug -> 500, like a real server
                response = http.error_response(
                    http.INTERNAL_SERVER_ERROR, f"<html><body>error: {exc}</body></html>"
                )
            return self._finish(request, response)
        if allowed_methods:
            # The path exists, the verb does not: 405 with Allow, not a
            # 404 that would make the resource look absent.
            response = http.error_response(http.METHOD_NOT_ALLOWED)
            response.headers["Allow"] = ", ".join(sorted(set(allowed_methods)))
            return self._finish(request, response)
        return self._finish(request, http.error_response(http.NOT_FOUND))

    def _finish(self, request: Request, response: Response) -> Response:
        response.url = request.url
        response.elapsed = self.latency_seconds
        return response


class Internet:
    """Hostname -> Site resolution and request dispatch.

    Tor hidden services (".onion" hosts) are only reachable when the
    request carries ``via_tor=True`` — mirroring that the underground
    markets are not on the clear web.
    """

    def __init__(self, clock: Optional[SimClock] = None,
                 telemetry=None) -> None:
        self.clock = clock or SimClock()
        self._sites: Dict[str, Site] = {}
        self._telemetry = telemetry
        self._m_served = (
            telemetry.metrics.counter(
                "server_requests_total",
                "requests served, by host and status",
                labels=("host", "status"),
            )
            if telemetry is not None else None
        )

    def set_telemetry(self, telemetry) -> None:
        """Bind a telemetry context after construction (the pipeline
        creates the Internet before it knows the run's telemetry)."""
        self._telemetry = telemetry
        self._m_served = telemetry.metrics.counter(
            "server_requests_total",
            "requests served, by host and status",
            labels=("host", "status"),
        )

    def register(self, site: Site) -> Site:
        if site.host in self._sites:
            raise ValueError(f"host already registered: {site.host}")
        self._sites[site.host] = site
        return site

    def site(self, host: str) -> Site:
        try:
            return self._sites[host.lower()]
        except KeyError:
            raise ConnectionFailed(f"unknown host: {host}") from None

    def fetch(self, request: Request, client_id: str = "anon", via_tor: bool = False) -> Response:
        host = url_host(request.url)
        if not host:
            raise ConnectionFailed(f"URL has no host: {request.url}")
        if host.endswith(".onion") and not via_tor:
            raise ConnectionFailed(f"{host} is a Tor hidden service; connect via Tor")
        site = self.site(host)
        self.clock.advance(site.latency_seconds)
        response = site.handle(request, client_id=client_id)
        if self._m_served is not None:
            self._m_served.inc(host=host, status=str(response.status))
        return response


__all__ = ["Handler", "Internet", "Route", "Site"]
