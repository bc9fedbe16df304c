"""Client-level observability: ClientStats, metrics, events."""

import pytest

from repro.obs import Telemetry
from repro.web import http
from repro.web.client import (
    BACKOFF_BASE_SECONDS,
    BACKOFF_MULTIPLIER,
    MAX_RETRIES,
    HttpClient,
)
from repro.web.http import RequestRejected
from repro.web.server import Internet, Site


def build_net(telemetry=None):
    net = Internet(telemetry=telemetry)
    site = Site("s.example", clock=net.clock)
    site.route("GET", "/x", lambda r: http.html_response("ok"))
    net.register(site)
    return net, site


class TestClientStatsExtensions:
    def test_per_host_counting(self):
        net, _site = build_net()
        other = Site("t.example", clock=net.clock)
        other.route("GET", "/y", lambda r: http.html_response("ok"))
        net.register(other)
        client = HttpClient(net)
        client.get("http://s.example/x")
        client.get("http://s.example/x")
        client.get("http://t.example/y")
        # Each host's count includes its one robots.txt fetch.
        assert client.stats.by_host == {"s.example": 3, "t.example": 2}
        assert client.stats.requests_sent == 5

    def test_retry_wait_seconds_accumulates(self):
        net, site = build_net()
        site.route("GET", "/down",
                   lambda r: http.error_response(http.SERVICE_UNAVAILABLE))
        telemetry = Telemetry()
        client = HttpClient(net, telemetry=telemetry)
        client.get("http://s.example/down")
        # One backoff per retry: 1 s + 2 s + 4 s.
        waits = sum(BACKOFF_BASE_SECONDS * BACKOFF_MULTIPLIER ** i
                    for i in range(MAX_RETRIES))
        metrics = telemetry.metrics
        assert metrics.get("http_retry_wait_seconds_total").value(
            host="s.example") == pytest.approx(waits)
        assert metrics.get("http_retries_total").value(
            host="s.example") == MAX_RETRIES


class TestClientMetrics:
    def test_requests_counted_by_host_and_status(self):
        net, _site = build_net()
        telemetry = Telemetry()
        client = HttpClient(net, telemetry=telemetry)
        client.get("http://s.example/x")
        client.get("http://s.example/missing")
        counter = telemetry.metrics.get("http_requests_total")
        assert counter.value(host="s.example", status="200") == 1
        # The missing page, and the robots.txt this site does not have.
        assert counter.value(host="s.example", status="404") == 2

    def test_server_side_accounting(self):
        telemetry = Telemetry()
        net, _site = build_net(telemetry)
        client = HttpClient(net, telemetry=telemetry)
        client.get("http://s.example/x")
        served = telemetry.metrics.get("server_requests_total")
        assert served.value(host="s.example", status="200") == 1
        assert served.value(host="s.example", status="404") == 1  # robots
        assert served.total() == 2

    def test_latency_histogram_observes_sim_time(self):
        net, _site = build_net()
        telemetry = Telemetry()
        telemetry.set_clock(net.clock)
        client = HttpClient(net, telemetry=telemetry)
        client.get("http://s.example/x")
        histogram = telemetry.metrics.get("http_request_sim_seconds")
        assert histogram.count(host="s.example") == 1
        # The site's 0.15 s latency is charged to the simulated clock,
        # once for the robots.txt fetch and once for the page.
        assert histogram.sum(host="s.example") == pytest.approx(0.30)


class TestRobotsEvents:
    def test_blocked_request_emits_event(self):
        net = Internet()
        site = Site("r.example", clock=net.clock,
                    robots_text="User-agent: *\nDisallow: /private\n")
        net.register(site)
        telemetry = Telemetry()
        telemetry.set_clock(net.clock)
        client = HttpClient(net, telemetry=telemetry)
        with pytest.raises(RequestRejected):
            client.get("http://r.example/private/x")
        [event] = telemetry.events.events
        assert event.kind == "robots_blocked"
        assert event.fields["host"] == "r.example"
        assert event.fields["path"] == "/private/x"
        counter = telemetry.metrics.get("robots_blocked_total")
        assert counter.value(host="r.example") == 1
