"""Tests for the retrying, robots-honouring HTTP client."""

import pytest

from repro.obs import Telemetry
from repro.web import http
from repro.web.client import (
    BACKOFF_BASE_SECONDS,
    BACKOFF_MULTIPLIER,
    MAX_RETRIES,
    HttpClient,
)
from repro.web.http import RequestRejected, TooManyRedirects
from repro.web.server import Internet, Site


def build_net():
    net = Internet()
    site = Site("s.example", clock=net.clock)
    net.register(site)
    return net, site


def observed_client(net):
    telemetry = Telemetry()
    return HttpClient(net, telemetry=telemetry), telemetry.metrics


def retries(metrics, host="s.example"):
    return metrics.get("http_retries_total").value(host=host)


class TestBasics:
    def test_get(self):
        net, site = build_net()
        site.route("GET", "/x", lambda r: http.html_response("ok"))
        response = HttpClient(net).get("http://s.example/x")
        assert response.ok and response.body == "ok"

    def test_query_params_passed(self):
        net, site = build_net()
        seen = {}

        def handler(request):
            seen.update(request.params)
            return http.html_response("ok")

        site.route("GET", "/q", handler)
        HttpClient(net).get("http://s.example/q", page="2")
        assert seen["page"] == "2"

    def test_post_form(self):
        net, site = build_net()
        seen = {}

        def handler(request):
            seen.update(request.form)
            return http.html_response("ok")

        site.route("POST", "/submit", handler)
        HttpClient(net).post("http://s.example/submit", form={"a": "1"})
        assert seen == {"a": "1"}

    def test_stats_recorded(self):
        net, site = build_net()
        site.route("GET", "/x", lambda r: http.html_response("ok"))
        client, metrics = observed_client(net)
        client.get("http://s.example/x")
        client.get("http://s.example/missing")
        # Plus the robots.txt fetch, a 404 on a site without one.
        assert client.stats.requests_sent == 3
        requests = metrics.get("http_requests_total")
        assert requests.value(host="s.example", status="200") == 1
        assert requests.value(host="s.example", status="404") == 2


class TestRedirects:
    def test_follows_redirect(self):
        net, site = build_net()
        site.route("GET", "/a", lambda r: http.redirect_response("/b"))
        site.route("GET", "/b", lambda r: http.html_response("there"))
        response = HttpClient(net).get("http://s.example/a")
        assert response.body == "there"

    def test_redirect_loop_raises(self):
        net, site = build_net()
        site.route("GET", "/loop", lambda r: http.redirect_response("/loop"))
        with pytest.raises(TooManyRedirects):
            HttpClient(net).get("http://s.example/loop")


class TestRetries:
    def test_retries_on_503_then_succeeds(self):
        net, site = build_net()
        attempts = {"n": 0}

        def flaky(request):
            attempts["n"] += 1
            if attempts["n"] < 3:
                return http.error_response(http.SERVICE_UNAVAILABLE)
            return http.html_response("finally")

        site.route("GET", "/flaky", flaky)
        client, metrics = observed_client(net)
        response = client.get("http://s.example/flaky")
        assert response.body == "finally"
        assert retries(metrics) == 2

    def test_gives_up_after_max_retries(self):
        net, site = build_net()
        site.route("GET", "/down", lambda r: http.error_response(http.SERVICE_UNAVAILABLE))
        client, metrics = observed_client(net)
        response = client.get("http://s.example/down")
        assert response.status == http.SERVICE_UNAVAILABLE
        assert retries(metrics) == MAX_RETRIES

    def test_backoff_charges_simulated_time(self):
        net, site = build_net()
        site.route("GET", "/down", lambda r: http.error_response(http.SERVICE_UNAVAILABLE))
        client = HttpClient(net)
        before = net.clock.now()
        client.get("http://s.example/down")
        # One wait per retry, each BACKOFF_MULTIPLIER times the last
        # (1 s, 2 s, 4 s), plus latency.
        waits = sum(BACKOFF_BASE_SECONDS * BACKOFF_MULTIPLIER ** i
                    for i in range(MAX_RETRIES))
        assert net.clock.now() - before >= waits

    def test_404_is_not_retried(self):
        net, site = build_net()
        client, metrics = observed_client(net)
        client.get("http://s.example/gone")
        assert retries(metrics) == 0


class TestRobots:
    def test_disallowed_path_rejected(self):
        net = Internet()
        site = Site("r.example", clock=net.clock,
                    robots_text="User-agent: *\nDisallow: /private\n")
        site.route("GET", "/private/x", lambda r: http.html_response("secret"))
        site.route("GET", "/public", lambda r: http.html_response("ok"))
        net.register(site)
        client, metrics = observed_client(net)
        assert client.get("http://r.example/public").ok
        with pytest.raises(RequestRejected):
            client.get("http://r.example/private/x")
        blocked = metrics.get("robots_blocked_total")
        assert blocked.value(host="r.example") == 1

    def test_no_robots_file_allows_everything(self):
        net, site = build_net()
        site.route("GET", "/anything", lambda r: http.html_response("ok"))
        assert HttpClient(net).get("http://s.example/anything").ok


class TestCookies:
    def test_set_cookie_persisted_per_host(self):
        net, site = build_net()

        def login(request):
            response = http.html_response("welcome")
            response.set_cookies["session"] = "tok123"
            return response

        def check(request):
            return http.html_response(request.cookies.get("session", "none"))

        site.route("GET", "/login", login)
        site.route("GET", "/check", check)
        client = HttpClient(net)
        client.get("http://s.example/login")
        assert client.get("http://s.example/check").body == "tok123"
        assert client.cookies["s.example"]["session"] == "tok123"
