"""Tests for the per-host circuit breaker and its client integration."""

import pytest

from repro.obs.telemetry import Telemetry
from repro.util.simtime import SimClock
from repro.web import http
from repro.web.breaker import (
    CLOSED,
    COOLDOWN_SECONDS,
    FAILURE_THRESHOLD,
    HALF_OPEN,
    HALF_OPEN_PROBES,
    OPEN,
    STATE_CODES,
    CircuitBreaker,
)
from repro.web.client import HttpClient
from repro.web.http import CircuitOpen
from repro.web.server import Internet, Site


def build_breaker():
    clock = SimClock()
    transitions = []
    breaker = CircuitBreaker(
        clock,
        on_transition=lambda old, new: transitions.append((old, new)),
    )
    return clock, breaker, transitions


def open_breaker(breaker):
    for _ in range(FAILURE_THRESHOLD):
        breaker.record_failure()
    assert breaker.state == OPEN


class TestStateMachine:
    def test_starts_closed_and_allows(self):
        _clock, breaker, _t = build_breaker()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_closed_to_open_at_threshold(self):
        _clock, breaker, transitions = build_breaker()
        for _ in range(FAILURE_THRESHOLD - 1):
            breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert transitions == [(CLOSED, OPEN)]

    def test_success_resets_failure_count(self):
        _clock, breaker, _t = build_breaker()
        for _ in range(10):
            for _ in range(FAILURE_THRESHOLD - 1):
                breaker.record_failure()
            breaker.record_success()  # never FAILURE_THRESHOLD in a row
        assert breaker.state == CLOSED

    def test_open_blocks_until_cooldown(self):
        clock, breaker, _t = build_breaker()
        open_breaker(breaker)
        assert not breaker.allow()
        clock.advance(COOLDOWN_SECONDS - 0.1)
        assert not breaker.allow()

    def test_open_to_half_open_after_cooldown(self):
        clock, breaker, transitions = build_breaker()
        open_breaker(breaker)
        clock.advance(COOLDOWN_SECONDS)
        # The transition happens inside allow(): the first post-cooldown
        # caller gets the probe slot.
        assert breaker.allow()
        assert breaker.state == HALF_OPEN
        assert transitions == [(CLOSED, OPEN), (OPEN, HALF_OPEN)]

    def test_half_open_admits_limited_probes(self):
        clock, breaker, _t = build_breaker()
        open_breaker(breaker)
        clock.advance(COOLDOWN_SECONDS)
        for _ in range(HALF_OPEN_PROBES):
            assert breaker.allow()   # the probes
        assert not breaker.allow()   # one more concurrent probe is denied

    def test_half_open_to_closed_on_probe_success(self):
        clock, breaker, transitions = build_breaker()
        open_breaker(breaker)
        clock.advance(COOLDOWN_SECONDS)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert transitions[-1] == (HALF_OPEN, CLOSED)

    def test_half_open_to_open_on_probe_failure(self):
        clock, breaker, transitions = build_breaker()
        open_breaker(breaker)
        clock.advance(COOLDOWN_SECONDS)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert transitions[-1] == (HALF_OPEN, OPEN)
        # The re-open starts a FULL new cooldown.
        clock.advance(COOLDOWN_SECONDS / 2)
        assert not breaker.allow()
        clock.advance(COOLDOWN_SECONDS / 2)
        assert breaker.allow()
        assert breaker.state == HALF_OPEN

    def test_reset_force_closes(self):
        _clock, breaker, transitions = build_breaker()
        open_breaker(breaker)
        breaker.reset()
        assert breaker.state == CLOSED
        assert breaker.allow()
        assert transitions[-1] == (OPEN, CLOSED)

    def test_state_codes_cover_all_states(self):
        assert set(STATE_CODES) == {CLOSED, OPEN, HALF_OPEN}


def build_client():
    net = Internet()
    site = Site("b.example", clock=net.clock)
    net.register(site)
    telemetry = Telemetry(clock=net.clock)
    client = HttpClient(net, telemetry=telemetry)
    return net, site, client, telemetry


def trip(client):
    """GET the failing ``/x`` until the breaker opens: each GET makes
    ``MAX_RETRIES + 1`` attempts, and each attempt is a failure."""
    for _ in range(FAILURE_THRESHOLD):
        client.get("http://b.example/x")
        if client.breaker_state("b.example") == OPEN:
            return
    raise AssertionError("the breaker never opened")


class TestClientIntegration:
    def test_consecutive_5xx_trip_breaker_and_fast_fail(self):
        net, site, client, telemetry = build_client()
        site.route(
            "GET", "/x", lambda r: http.error_response(http.SERVICE_UNAVAILABLE)
        )
        trip(client)
        with pytest.raises(CircuitOpen):
            client.get("http://b.example/x")
        fast_fails = telemetry.metrics.get("circuit_breaker_fast_fails_total")
        assert fast_fails.value(host="b.example") == 1

    def test_breaker_state_observable_via_metrics(self):
        net, site, client, telemetry = build_client()
        site.route(
            "GET", "/x", lambda r: http.error_response(http.SERVICE_UNAVAILABLE)
        )
        trip(client)
        gauge = telemetry.metrics.get("circuit_breaker_state")
        assert gauge.value(host="b.example") == STATE_CODES[OPEN]
        transitions = telemetry.metrics.get("circuit_breaker_transitions_total")
        assert transitions.value(host="b.example", to=OPEN) == 1
        with pytest.raises(CircuitOpen):
            client.get("http://b.example/x")
        fast_fails = telemetry.metrics.get("circuit_breaker_fast_fails_total")
        assert fast_fails.value(host="b.example") == 1
        assert any(
            e.kind == "breaker.open" for e in telemetry.events.events
        )

    def test_half_open_probe_recovers_via_client(self):
        net, site, client, telemetry = build_client()
        state = {"healthy": False}

        def handler(request):
            if state["healthy"]:
                return http.html_response("back")
            return http.error_response(http.SERVICE_UNAVAILABLE)

        site.route("GET", "/x", handler)
        trip(client)
        state["healthy"] = True
        net.clock.advance(COOLDOWN_SECONDS)
        response = client.get("http://b.example/x")  # the half-open probe
        assert response.ok
        assert client.breaker_state("b.example") == CLOSED
        gauge = telemetry.metrics.get("circuit_breaker_state")
        assert gauge.value(host="b.example") == STATE_CODES[CLOSED]

    def test_failed_probe_reopens_via_client(self):
        net, site, client, telemetry = build_client()
        attempts = {"n": 0}

        def down(request):
            attempts["n"] += 1
            return http.error_response(http.SERVICE_UNAVAILABLE)

        site.route("GET", "/x", down)
        trip(client)
        net.clock.advance(COOLDOWN_SECONDS)
        before = attempts["n"]
        # The probe is admitted, fails, and re-opens the breaker for a
        # full cooldown, so the probe's own retry fast-fails.
        with pytest.raises(CircuitOpen):
            client.get("http://b.example/x")
        assert attempts["n"] == before + 1
        assert client.breaker_state("b.example") == OPEN
        transitions = telemetry.metrics.get("circuit_breaker_transitions_total")
        assert transitions.value(host="b.example", to=HALF_OPEN) == 1
        assert transitions.value(host="b.example", to=OPEN) == 2
        with pytest.raises(CircuitOpen):
            client.get("http://b.example/x")

    def test_429_is_neutral(self):
        net, site, client, _telemetry = build_client()
        site.route(
            "GET", "/x", lambda r: http.error_response(http.TOO_MANY_REQUESTS)
        )
        # MAX_RETRIES + 1 attempts per GET, all 429: far past the
        # threshold, had they counted as failures.
        for _ in range(FAILURE_THRESHOLD):
            client.get("http://b.example/x")
        assert client.breaker_state("b.example") == CLOSED

    def test_begin_epoch_resets_breaker(self):
        net, site, client, _telemetry = build_client()
        state = {"healthy": False}

        def handler(request):
            if state["healthy"]:
                return http.html_response("ok")
            return http.error_response(http.SERVICE_UNAVAILABLE)

        site.route("GET", "/x", handler)
        trip(client)
        client.begin_epoch(1)
        assert client.breaker_state("b.example") == CLOSED
        state["healthy"] = True
        assert client.get("http://b.example/x").ok
