"""The HTTP client the crawler uses.

Implements what the paper's Selenium/CDP stack provided at the transport
level: sessions (cookies), redirects, retry with exponential backoff on
retryable statuses (honouring ``Retry-After`` on 429s), and robots.txt
compliance.  Each request costs its site's latency on the simulated
clock, and each retry its backoff, so crawls are deterministic.

The client is hardened against a hostile substrate (see
:mod:`repro.faults`): requests time out after ``TIMEOUT_SECONDS`` of
simulated time, transient transport failures (connect errors, timeouts)
are retried with the same backoff as retryable statuses, each host has a
finite *retry budget* per crawl epoch, and a per-host circuit breaker
(:class:`~repro.web.breaker.CircuitBreaker`) fast-fails requests to
hosts that keep failing, probing them again after a cooldown.

Every request is observable: the client keeps per-host request and
byte counts in :class:`ClientStats`, and — when handed a
:class:`~repro.obs.telemetry.Telemetry` — records
``http_requests_total{host,status}``, retry/robots/timeout counters,
breaker state gauges, a sim-time latency histogram, and a span per
top-level request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.web import http
from repro.web.breaker import STATE_CODES, CircuitBreaker
from repro.web.http import (
    CircuitOpen,
    ConnectionFailed,
    Request,
    RequestRejected,
    RequestTimeout,
    Response,
    TooManyRedirects,
)
from repro.web.robots import RobotsPolicy
from repro.web.server import Internet
from repro.web.url import join_url, url_host, url_path

#: Statuses that count as host failures for the circuit breaker.  429 is
#: deliberately absent: a throttling host is alive, and backoff — not the
#: breaker — is the right response.
_BREAKER_FAILURE_CODES = frozenset({
    http.INTERNAL_SERVER_ERROR,
    http.BAD_GATEWAY,
    http.SERVICE_UNAVAILABLE,
    http.GATEWAY_TIMEOUT,
})

USER_AGENT = "repro-measurement-crawler/1.0"
MAX_REDIRECTS = 5
#: Retries after the first attempt of one request.
MAX_RETRIES = 3
#: Simulated seconds the first retry backs off.
BACKOFF_BASE_SECONDS = 1.0
#: Each retry backs off this many times longer than the one before.
BACKOFF_MULTIPLIER = 2.0
#: Give up on a response after this much simulated time: hung servers
#: otherwise stall the crawl forever.
TIMEOUT_SECONDS = 30.0
#: Retries allowed per host per crawl epoch; once spent, transient
#: failures surface immediately instead of backing off again.
RETRY_BUDGET_PER_HOST = 64


@dataclass
class ClientStats:
    """Request and byte counts, the profiler's per-host throughput
    material (the metrics registry counts everything else per host)."""

    requests_sent: int = 0
    #: Requests per hostname (includes robots.txt fetches).
    by_host: Dict[str, int] = field(default_factory=dict)
    #: Response body bytes received, total and per hostname.
    bytes_received: int = 0
    bytes_by_host: Dict[str, int] = field(default_factory=dict)

    def record(self, host: str, nbytes: int) -> None:
        self.requests_sent += 1
        self.by_host[host] = self.by_host.get(host, 0) + 1
        if nbytes:
            self.bytes_received += nbytes
            self.bytes_by_host[host] = self.bytes_by_host.get(host, 0) + nbytes


class HttpClient:
    """A retrying, robots-honouring HTTP client bound to one
    :class:`Internet`.  ``via_tor`` lets it reach ``.onion`` hosts."""

    def __init__(
        self,
        internet: Internet,
        client_id: str = "crawler",
        telemetry: Optional[Telemetry] = None,
        capture=None,
        via_tor: bool = False,
    ) -> None:
        self._internet = internet
        self.client_id = client_id
        self.via_tor = via_tor
        #: Optional :class:`~repro.archive.writer.ArchiveWriter` (duck-
        #: typed).  When set, every wire exchange and every top-level
        #: request outcome is archived.  Exchanges are recorded in
        #: ``_send_once`` — *before* the retry/redirect machinery can
        #: repair or discard them — so intermediate 503s, truncated
        #: bodies, and timed-out responses land in the archive exactly
        #: as observed.
        self.capture = capture
        self.cookies: Dict[str, Dict[str, str]] = {}
        self.stats = ClientStats()
        self._robots_cache: Dict[str, Optional[RobotsPolicy]] = {}
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._retry_budget: Dict[str, int] = {}
        self.telemetry = telemetry or NULL_TELEMETRY
        metrics = self.telemetry.metrics
        self._m_requests = metrics.counter(
            "http_requests_total", "requests sent, by host and status",
            labels=("host", "status"),
        )
        self._m_retries = metrics.counter(
            "http_retries_total", "retried requests, by host", labels=("host",)
        )
        self._m_retry_wait = metrics.counter(
            "http_retry_wait_seconds_total",
            "simulated seconds spent in retry backoff", labels=("host",),
        )
        self._m_robots_blocked = metrics.counter(
            "robots_blocked_total", "requests rejected by robots.txt",
            labels=("host",),
        )
        self._m_latency = metrics.histogram(
            "http_request_sim_seconds",
            "simulated seconds per top-level request (incl. waits)",
            labels=("host",),
        )
        self._m_timeouts = metrics.counter(
            "http_timeouts_total", "requests abandoned at the client timeout",
            labels=("host",),
        )
        self._m_response_bytes = metrics.counter(
            "http_response_bytes_total",
            "response body bytes received, by host", labels=("host",),
        )
        self._m_breaker_state = metrics.gauge(
            "circuit_breaker_state",
            "breaker state per host: 0 closed, 1 open, 2 half-open",
            labels=("host",),
        )
        self._m_breaker_transitions = metrics.counter(
            "circuit_breaker_transitions_total",
            "breaker transitions, by host and new state",
            labels=("host", "to"),
        )
        self._m_breaker_fast_fail = metrics.counter(
            "circuit_breaker_fast_fails_total",
            "requests rejected by an open breaker", labels=("host",),
        )

    # -- public API ----------------------------------------------------------

    @property
    def clock(self):
        """The simulated clock this client charges its time to."""
        return self._internet.clock

    def begin_epoch(self, epoch: int) -> None:
        """Start a new crawl epoch (a collection iteration).

        Iterations are days apart in simulated time: breakers would have
        cooled down and retry budgets replenished.  The robots cache is
        dropped too — a week-old robots.txt must be re-checked, and
        re-fetching it at every epoch keeps the per-host request
        sequence (and therefore the seeded fault stream) identical
        between a resumed crawl and an uninterrupted one (see
        ``tests/integration/test_kill_resume.py``).
        """
        for breaker in self._breakers.values():
            breaker.reset()
        self._retry_budget.clear()
        self._robots_cache.clear()

    def breaker_state(self, host: str) -> str:
        """The breaker state for ``host`` ("closed" when untracked)."""
        breaker = self._breakers.get(host)
        return breaker.state if breaker is not None else "closed"

    def get(self, url: str, **params: str) -> Response:
        return self.request("GET", url, params={k: str(v) for k, v in params.items()})

    def post(self, url: str, form: Optional[Dict[str, str]] = None) -> Response:
        return self.request("POST", url, form=form or {})

    def request(
        self,
        method: str,
        url: str,
        params: Optional[Dict[str, str]] = None,
        form: Optional[Dict[str, str]] = None,
    ) -> Response:
        """Send a request, following redirects and retrying retryables."""
        host = url_host(url)
        sim_start = self._internet.clock.now()
        with self.telemetry.tracer.span("http.request", method=method, url=url):
            try:
                response = self._follow_redirects(method, url, params, form)
            except http.HttpError as exc:
                if self.capture is not None:
                    self.capture.record_outcome(
                        client=self.client_id, method=method, url=url,
                        params=params, form=form, error=exc,
                    )
                raise
            finally:
                self._m_latency.observe(
                    self._internet.clock.now() - sim_start, host=host
                )
        if self.capture is not None:
            self.capture.record_outcome(
                client=self.client_id, method=method, url=url,
                params=params, form=form, response=response,
            )
        return response

    def _follow_redirects(
        self,
        method: str,
        url: str,
        params: Optional[Dict[str, str]],
        form: Optional[Dict[str, str]],
    ) -> Response:
        redirects = 0
        current_url = url
        while True:
            response = self._send_with_retries(method, current_url, params, form)
            if response.is_redirect:
                redirects += 1
                if redirects > MAX_REDIRECTS:
                    raise TooManyRedirects(f"redirect limit exceeded at {current_url}")
                current_url = join_url(current_url, response.headers["Location"])
                method, params, form = "GET", None, None
                continue
            return response

    # -- internals -------------------------------------------------------------

    def _send_with_retries(
        self,
        method: str,
        url: str,
        params: Optional[Dict[str, str]],
        form: Optional[Dict[str, str]],
    ) -> Response:
        attempt = 0
        backoff = BACKOFF_BASE_SECONDS
        host = url_host(url)
        breaker = self._breaker_for(host)
        while True:
            if not breaker.allow():
                self._m_breaker_fast_fail.inc(host=host)
                raise CircuitOpen(f"circuit breaker open for {host}")
            failure: Optional[http.HttpError] = None
            response: Optional[Response] = None
            try:
                response = self._send_once(method, url, params, form)
            except (ConnectionFailed, RequestTimeout) as exc:
                failure = exc
            if failure is not None or response.status in _BREAKER_FAILURE_CODES:
                breaker.record_failure()
            elif response.status != http.TOO_MANY_REQUESTS:
                # 429 is neutral: alive but throttling.
                breaker.record_success()
            if failure is None and response.status not in http.RETRYABLE_CODES:
                return response
            if attempt >= MAX_RETRIES or not self._take_retry_token(host):
                if failure is not None:
                    raise failure
                return response
            attempt += 1
            self._m_retries.inc(host=host)
            retry_after = (
                http.parse_retry_after(
                    response.header("Retry-After"), self._internet.clock.now()
                )
                if response is not None else None
            )
            wait = max(retry_after if retry_after is not None else 0.0, backoff)
            self._m_retry_wait.inc(wait, host=host)
            self._internet.clock.advance(wait)
            backoff *= BACKOFF_MULTIPLIER

    def _breaker_for(self, host: str) -> CircuitBreaker:
        breaker = self._breakers.get(host)
        if breaker is None:
            def on_transition(old: str, new: str, host: str = host) -> None:
                self._m_breaker_state.set(STATE_CODES[new], host=host)
                self._m_breaker_transitions.inc(host=host, to=new)
                self.telemetry.events.emit(
                    f"breaker.{new}", host=host, previous=old,
                    level="warning" if new == "open" else "info",
                )
            breaker = CircuitBreaker(self._internet.clock, on_transition)
            self._m_breaker_state.set(STATE_CODES[breaker.state], host=host)
            self._breakers[host] = breaker
        return breaker

    def _take_retry_token(self, host: str) -> bool:
        remaining = self._retry_budget.get(host, RETRY_BUDGET_PER_HOST)
        if remaining <= 0:
            return False
        self._retry_budget[host] = remaining - 1
        return True

    def _send_once(
        self,
        method: str,
        url: str,
        params: Optional[Dict[str, str]],
        form: Optional[Dict[str, str]],
    ) -> Response:
        host = url_host(url)
        self._check_robots(url, host)
        request = Request(
            method=method,
            url=url,
            headers={"User-Agent": USER_AGENT},
            params=dict(params or {}),
            form=dict(form or {}),
            cookies=dict(self.cookies.get(host, {})),
        )
        fetch_started = self._internet.clock.now()
        try:
            response = self._internet.fetch(
                request, client_id=self.client_id, via_tor=self.via_tor
            )
        except ConnectionFailed as exc:
            if self.capture is not None:
                self.capture.record_exchange(
                    client=self.client_id, method=method, url=url,
                    params=params, form=form, error=exc,
                )
            raise
        elapsed = self._internet.clock.now() - fetch_started
        if elapsed > TIMEOUT_SECONDS:
            # The answer arrived after the client hung up: discard it.
            self._m_timeouts.inc(host=host)
            error = RequestTimeout(
                f"no response from {host} within {TIMEOUT_SECONDS:.0f}s "
                f"(server took {elapsed:.0f}s)"
            )
            if self.capture is not None:
                # Archive the late answer as observed — the caller never
                # sees it, but the archive keeps the wire truth.
                self.capture.record_exchange(
                    client=self.client_id, method=method, url=url,
                    params=params, form=form, response=response,
                    error=error, note="timeout_discarded",
                )
            raise error
        if self.capture is not None:
            self.capture.record_exchange(
                client=self.client_id, method=method, url=url,
                params=params, form=form, response=response,
            )
        nbytes = len(response.body or "")
        self.stats.record(host, nbytes)
        self._m_requests.inc(host=host, status=str(response.status))
        if nbytes:
            self._m_response_bytes.inc(nbytes, host=host)
        if response.set_cookies:
            jar = self.cookies.setdefault(host, {})
            jar.update(response.set_cookies)
        return response

    def _check_robots(self, url: str, host: str) -> None:
        """Honour robots.txt on every public (non-onion) host."""
        if host.endswith(".onion"):
            return
        path = url_path(url)
        if path == "/robots.txt":
            return
        policy = self._robots_policy(host, url)
        if policy is not None and not policy.allows(USER_AGENT, path):
            self._m_robots_blocked.inc(host=host)
            self.telemetry.events.emit(
                "robots_blocked", url=url, host=host, path=path
            )
            raise RequestRejected(f"robots.txt disallows {path} on {host}")

    def _robots_policy(self, host: str, any_url: str) -> Optional[RobotsPolicy]:
        if host in self._robots_cache:
            return self._robots_cache[host]
        robots_url = f"http://{host}/robots.txt"
        try:
            request = Request(
                method="GET",
                url=robots_url,
                headers={"User-Agent": USER_AGENT},
            )
            response = self._internet.fetch(
                request, client_id=self.client_id, via_tor=self.via_tor
            )
            nbytes = len(response.body or "")
            self.stats.record(host, nbytes)
            self._m_requests.inc(host=host, status=str(response.status))
            if nbytes:
                self._m_response_bytes.inc(nbytes, host=host)
        except http.HttpError as exc:
            if self.capture is not None:
                self.capture.record_exchange(
                    client=self.client_id, method="GET", url=robots_url,
                    error=exc, note="robots",
                )
            self._robots_cache[host] = None
            return None
        if self.capture is not None:
            self.capture.record_exchange(
                client=self.client_id, method="GET", url=robots_url,
                response=response, note="robots",
            )
        policy = RobotsPolicy.parse(response.body) if response.ok else None
        self._robots_cache[host] = policy
        return policy


__all__ = ["ClientStats", "HttpClient"]
