"""Tests for virtual hosts, routing, and the Internet."""

import pytest

from repro.web import http
from repro.web.http import ConnectionFailed, Request
from repro.web.server import Internet, Route, Site


def make_request(url, method="GET", **kwargs):
    return Request(method=method, url=url, **kwargs)


class TestRoute:
    def test_static_match(self):
        route = Route("GET", "/listings", lambda r: http.html_response("ok"))
        assert route.match("GET", "/listings") == {}
        assert route.match("GET", "/other") is None
        assert route.match("POST", "/listings") is None

    def test_path_params(self):
        route = Route("GET", "/offer/<offer_id>", lambda r: http.html_response("ok"))
        assert route.match("GET", "/offer/abc-123") == {"offer_id": "abc-123"}

    def test_param_does_not_cross_segments(self):
        route = Route("GET", "/offer/<offer_id>", lambda r: http.html_response("ok"))
        assert route.match("GET", "/offer/a/b") is None

    def test_multiple_params(self):
        route = Route("GET", "/a/<x>/b/<y>", lambda r: http.html_response("ok"))
        assert route.match("GET", "/a/1/b/2") == {"x": "1", "y": "2"}

    def test_empty_param_segment_rejected(self):
        route = Route("GET", "/listing/<lid>/view",
                      lambda r: http.html_response("ok"))
        assert route.match("GET", "/listing//view") is None
        assert route.match("GET", "/listing/7/view") == {"lid": "7"}

    def test_trailing_slash_is_a_different_path(self):
        route = Route("GET", "/listings", lambda r: http.html_response("ok"))
        assert route.match("GET", "/listings") == {}
        assert route.match("GET", "/listings/") is None

    def test_match_path_ignores_method(self):
        route = Route("POST", "/submit", lambda r: http.html_response("ok"))
        assert route.match_path("/submit") == {}
        assert route.match("GET", "/submit") is None


class TestSite:
    def setup_method(self):
        self.site = Site("test.example", latency_seconds=0.1)
        self.site.route("GET", "/page", lambda r: http.html_response("hello"))
        self.site.route(
            "GET", "/offer/<oid>",
            lambda r: http.html_response(f"offer {r.path_params['oid']}"),
        )

    def test_dispatch(self):
        response = self.site.handle(make_request("http://test.example/page"))
        assert response.status == 200
        assert response.body == "hello"

    def test_path_params_fill(self):
        response = self.site.handle(make_request("http://test.example/offer/9"))
        assert "offer 9" in response.body

    def test_unknown_path_404(self):
        response = self.site.handle(make_request("http://test.example/nope"))
        assert response.status == http.NOT_FOUND

    def test_query_params_merge(self):
        captured = {}

        def handler(request):
            captured.update(request.params)
            return http.html_response("ok")

        self.site.route("GET", "/q", handler)
        self.site.handle(make_request("http://test.example/q?page=3"))
        assert captured["page"] == "3"

    def test_handler_exception_becomes_500(self):
        def broken(request):
            raise RuntimeError("boom")

        self.site.route("GET", "/broken", broken)
        response = self.site.handle(make_request("http://test.example/broken"))
        assert response.status == http.INTERNAL_SERVER_ERROR

    def test_robots_served(self):
        site = Site("r.example", robots_text="User-agent: *\nDisallow: /secret\n")
        response = site.handle(make_request("http://r.example/robots.txt"))
        assert "Disallow: /secret" in response.body

    def test_wrong_method_is_405_with_allow(self):
        response = self.site.handle(
            make_request("http://test.example/page", method="POST"))
        assert response.status == http.METHOD_NOT_ALLOWED
        assert response.header("Allow") == "GET"

    def test_allow_lists_every_matching_method_sorted(self):
        site = Site("m.example")
        site.route("GET", "/thing", lambda r: http.html_response("ok"))
        site.route("POST", "/thing", lambda r: http.html_response("ok"))
        response = site.handle(
            make_request("http://m.example/thing", method="HEAD"))
        assert response.status == http.METHOD_NOT_ALLOWED
        assert response.header("Allow") == "GET, POST"
        # An unrouted path stays a plain 404, method notwithstanding.
        response = site.handle(
            make_request("http://m.example/nothing", method="POST"))
        assert response.status == http.NOT_FOUND

    def test_405_route_with_params_still_matches(self):
        response = self.site.handle(
            make_request("http://test.example/offer/9", method="POST"))
        assert response.status == http.METHOD_NOT_ALLOWED
        assert response.header("Allow") == "GET"

    def test_overlapping_routes_first_registration_wins(self):
        site = Site("o.example")
        site.route("GET", "/item/static", lambda r: http.html_response("static"))
        site.route("GET", "/item/<iid>", lambda r: http.html_response("param"))
        assert site.handle(
            make_request("http://o.example/item/static")).body == "static"
        assert site.handle(
            make_request("http://o.example/item/77")).body == "param"


class TestInternet:
    def test_unknown_host_refused(self):
        net = Internet()
        with pytest.raises(ConnectionFailed):
            net.fetch(make_request("http://ghost.example/"))

    def test_duplicate_registration_rejected(self):
        net = Internet()
        net.register(Site("dup.example"))
        with pytest.raises(ValueError):
            net.register(Site("dup.example"))

    def test_onion_requires_tor(self):
        net = Internet()
        site = Site("market.onion")
        site.route("GET", "/", lambda r: http.html_response("hidden"))
        net.register(site)
        with pytest.raises(ConnectionFailed):
            net.fetch(make_request("http://market.onion/"))
        response = net.fetch(make_request("http://market.onion/"), via_tor=True)
        assert response.body == "hidden"

    def test_latency_advances_shared_clock(self):
        net = Internet()
        site = Site("slow.example", clock=net.clock, latency_seconds=2.0)
        site.route("GET", "/", lambda r: http.html_response("ok"))
        net.register(site)
        before = net.clock.now()
        net.fetch(make_request("http://slow.example/"))
        assert net.clock.now() == pytest.approx(before + 2.0)
