"""Seeded fault injection over the synthetic Internet.

:class:`FaultInjector` wraps an :class:`~repro.web.server.Internet` and
presents the client's surface of it (``clock`` and ``fetch``), so the
:class:`~repro.web.client.HttpClient` cannot tell the difference —
exactly as a real crawler cannot tell a dying reverse proxy from the
site behind it.  On each ``fetch`` it may, per the active
:class:`~repro.faults.profiles.FaultProfile`:

* raise a connect error (outage bursts),
* answer 500/502/503/504 (5xx bursts),
* stall beyond the client timeout (hangs) or just below it (tarpits),
* truncate or mangle the HTML body it relays,
* answer 429 storms bearing ``Retry-After`` in both RFC 7231 forms,
* trip a mid-crawl flash ban (a window of 403 answers).

Every decision comes from a :class:`~repro.util.rng.RngTree` stream
derived from ``(seed, epoch, host)``, where the epoch advances at each
collection iteration (:meth:`FaultInjector.begin_iteration`).  Two
same-seed runs therefore inject byte-identical fault sequences, and —
because a resumed crawl re-enters iteration *k* with the same epoch
stream an uninterrupted run would use — checkpointed resume stays
deterministic under chaos too.

Every injected fault is observable: a ``fault.<kind>`` event with host
and URL context, plus a ``faults_injected_total{host,kind}`` counter.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.faults.profiles import FaultProfile, FaultRates
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.util.rng import RngTree
from repro.web import http
from repro.web.http import ConnectionFailed, Request, Response
from repro.web.server import Internet

#: 5xx codes a burst cycles through (503 first: the most common answer
#: of an overloaded marketplace).
_BURST_CODES = (
    http.SERVICE_UNAVAILABLE,
    http.INTERNAL_SERVER_ERROR,
    http.BAD_GATEWAY,
    http.GATEWAY_TIMEOUT,
)

#: Simulated seconds a failed connect attempt costs the client.
_CONNECT_FAIL_SECONDS = 1.0


class _HostState:
    """Per-host fault bookkeeping within one epoch."""

    __slots__ = ("rng", "requests", "burst_kind", "burst_remaining", "burst_index")

    def __init__(self, rng: RngTree) -> None:
        self.rng = rng
        self.requests = 0
        self.burst_kind: Optional[str] = None
        self.burst_remaining = 0
        self.burst_index = 0


class FaultInjector:
    """An :class:`Internet` proxy that injects seeded faults per host."""

    def __init__(
        self,
        inner: Internet,
        profile: FaultProfile,
        seed: int,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self._inner = inner
        self.profile = profile
        self._seed = seed
        self._epoch = 0
        self._states: Dict[str, _HostState] = {}
        self.telemetry = telemetry or NULL_TELEMETRY
        self._m_faults = self.telemetry.metrics.counter(
            "faults_injected_total", "injected faults, by host and kind",
            labels=("host", "kind"),
        )
        #: Injected-fault tally by kind (tests and reporting).
        self.counts: Dict[str, int] = {}

    # -- Internet surface --------------------------------------------------

    @property
    def clock(self):
        return self._inner.clock

    # -- epochs ------------------------------------------------------------

    def begin_iteration(self, iteration: int) -> None:
        """Reseed all per-host fault streams for a collection iteration.

        Keying streams by ``(seed, iteration, host)`` — instead of one
        global request counter — is what makes a checkpointed resume see
        the same faults at iteration *k* as an uninterrupted run.
        """
        self._epoch = iteration
        self._states.clear()

    # -- fetch -------------------------------------------------------------

    def fetch(self, request: Request, client_id: str = "anon",
              via_tor: bool = False) -> Response:
        if not self.profile.active:
            return self._inner.fetch(request, client_id=client_id, via_tor=via_tor)
        from repro.web.url import url_host

        host = url_host(request.url)
        state = self._state_for(host)
        state.requests += 1
        rates = self.profile.rates
        action = self._next_action(state, rates)
        if action == "outage":
            self._note(host, request, "outage")
            self.clock.advance(_CONNECT_FAIL_SECONDS)
            raise ConnectionFailed(f"injected outage: {host} unreachable")
        if action == "server_error":
            code = _BURST_CODES[state.burst_index % len(_BURST_CODES)]
            self._note(host, request, f"http_{code}")
            return self._synthetic(request, http.error_response(code))
        if action == "rate_storm":
            self._note(host, request, "rate_storm")
            response = http.error_response(http.TOO_MANY_REQUESTS)
            delay = rates.retry_after_seconds
            if state.rng.random() < rates.retry_after_http_date_share:
                response.headers["Retry-After"] = http.sim_http_date(
                    self.clock.now() + delay
                )
            else:
                response.headers["Retry-After"] = f"{delay:.1f}"
            return self._synthetic(request, response)
        if action == "flash_ban":
            self._note(host, request, "flash_ban")
            return self._synthetic(request, http.error_response(http.FORBIDDEN))
        if action == "hang":
            # The server sits on the request past the client timeout;
            # the client will discard whatever eventually arrives.
            self._note(host, request, "hang")
            self.clock.advance(rates.hang_seconds)
            return self._inner.fetch(request, client_id=client_id, via_tor=via_tor)
        if action == "tarpit":
            self._note(host, request, "tarpit")
            self.clock.advance(rates.tarpit_seconds)
            return self._inner.fetch(request, client_id=client_id, via_tor=via_tor)

        response = self._inner.fetch(request, client_id=client_id, via_tor=via_tor)
        if action in ("truncate", "mangle") and _is_html(response) and response.ok:
            if action == "truncate":
                self._note(host, request, "truncated_html")
                cut = max(1, int(len(response.body) * state.rng.uniform(0.25, 0.7)))
                response.body = response.body[:cut]
            else:
                self._note(host, request, "mangled_html")
                response.body = _mangle(response.body)
        return response

    # -- internals ---------------------------------------------------------

    def _state_for(self, host: str) -> _HostState:
        state = self._states.get(host)
        if state is None:
            stream = RngTree(self._seed, name="faults").child(
                f"epoch:{self._epoch}"
            ).child(host)
            state = _HostState(stream)
            self._states[host] = state
        return state

    def _next_action(self, state: _HostState, rates: FaultRates) -> Optional[str]:
        """One fault decision: continue an active burst or roll a new one."""
        if state.burst_remaining > 0:
            state.burst_remaining -= 1
            state.burst_index += 1
            return state.burst_kind
        state.burst_kind = None
        roll = state.rng.random()
        threshold = 0.0
        for kind, probability in (
            ("outage", rates.outage),
            ("server_error", rates.server_error),
            ("hang", rates.hang),
            ("tarpit", rates.tarpit),
            ("truncate", rates.truncate_body),
            ("mangle", rates.mangle_body),
            ("rate_storm", rates.rate_storm),
            ("flash_ban", rates.flash_ban),
        ):
            threshold += probability
            if roll < threshold and probability > 0.0:
                self._begin_burst(state, kind, rates)
                return kind
        return None

    def _begin_burst(self, state: _HostState, kind: str,
                     rates: FaultRates) -> None:
        """Arm burst bookkeeping for fault families that come in runs."""
        lengths = {
            "outage": rates.outage_burst,
            "server_error": rates.server_error_burst,
            "rate_storm": rates.rate_storm_burst,
            "flash_ban": (rates.flash_ban_requests, rates.flash_ban_requests),
        }.get(kind)
        state.burst_index = 0
        if lengths is None:
            state.burst_remaining = 0
            return
        low, high = lengths
        # This request is the first of the burst; the rest follow.
        state.burst_kind = kind
        state.burst_remaining = max(0, state.rng.randint(low, high) - 1)

    def _synthetic(self, request: Request, response: Response) -> Response:
        """Stamp an injected response like a real site answer."""
        latency = 0.15
        try:
            latency = self._inner.site(_host_of(request)).latency_seconds
        except http.HttpError:
            pass
        self.clock.advance(latency)
        response.url = request.url
        response.elapsed = latency
        return response

    def _note(self, host: str, request: Request, kind: str) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self._m_faults.inc(host=host, kind=kind)
        self.telemetry.events.emit(
            f"fault.{kind}", level="info", host=host, url=request.url,
        )


def _host_of(request: Request) -> str:
    from repro.web.url import url_host

    return url_host(request.url)


def _is_html(response: Response) -> bool:
    return "text/html" in response.content_type


def _mangle(body: str) -> str:
    """Scramble markup the way silent site redesigns and WAF
    interstitials did in the paper's crawl: the page still parses, but
    every class hook the extractor keys on is gone."""
    return body.replace("class=", "data-chaos=")


__all__ = ["FaultInjector"]
