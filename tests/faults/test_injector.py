"""Tests for the seeded fault-injection layer."""

import pytest

from repro.faults import (
    PROFILES,
    FaultInjector,
    FaultProfile,
    FaultRates,
    resolve_profile,
)
from repro.obs.telemetry import Telemetry
from repro.web import http
from repro.web.http import ConnectionFailed, Request
from repro.web.server import Internet, Site

PAGE = "<html><body><div class='offer'>hello</div></body></html>"


def build_net():
    net = Internet()
    site = Site("chaos.example", clock=net.clock)
    site.route("GET", "/page", lambda r: http.html_response(PAGE))
    net.register(site)
    return net


def injector_for(rates, seed=7, telemetry=None):
    net = build_net()
    profile = FaultProfile(name="test", rates=rates)
    return net, FaultInjector(net, profile, seed=seed, telemetry=telemetry)


def fetch(injector, path="/page"):
    return injector.fetch(Request("GET", f"http://chaos.example{path}"))


class TestProfiles:
    def test_registry_names(self):
        assert set(PROFILES) == {
            "off", "light", "moderate", "heavy", "disk", "disk_full",
        }

    def test_network_profiles_have_no_disk_rates(self):
        # The pre-existing CI chaos gates (twin-run determinism, crash
        # drills) run under the network profiles; storage chaos must
        # stay opt-in via the disk profiles.
        for name in ("off", "light", "moderate", "heavy"):
            assert not PROFILES[name].disk_active, name

    def test_disk_profiles_are_storage_only(self):
        for name in ("disk", "disk_full"):
            assert PROFILES[name].disk_active, name
            assert not PROFILES[name].active, name

    def test_resolve_is_case_insensitive(self):
        assert resolve_profile("MODERATE").name == "moderate"

    def test_off_aliases(self):
        for alias in ("off", "none", "disabled", "", None):
            assert not resolve_profile(alias).active

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos profile"):
            resolve_profile("apocalyptic")

    def test_rates_active_property(self):
        assert not FaultRates().active
        assert FaultRates(outage=0.01).active


class TestPassthrough:
    def test_inactive_profile_relays_untouched(self):
        net, injector = injector_for(FaultRates())
        response = fetch(injector)
        assert response.ok and response.body == PAGE
        assert injector.counts == {}

    def test_internet_surface_delegates(self):
        net, injector = injector_for(FaultRates())
        assert injector.clock is net.clock
        before = net.clock.now()
        fetch(injector)
        # The relayed fetch costs the site's latency on the shared clock.
        assert net.clock.now() - before == pytest.approx(0.15)


class TestFaultKinds:
    """Each fault family, forced with probability 1."""

    def test_outage_raises_connection_failed(self):
        net, injector = injector_for(FaultRates(outage=1.0))
        before = net.clock.now()
        with pytest.raises(ConnectionFailed, match="injected outage"):
            fetch(injector)
        assert net.clock.now() > before  # the failed connect costs time
        assert injector.counts["outage"] == 1

    def test_server_error_burst_cycles_5xx(self):
        net, injector = injector_for(
            FaultRates(server_error=1.0, server_error_burst=(4, 4))
        )
        codes = [fetch(injector).status for _ in range(4)]
        assert codes == [503, 500, 502, 504]

    def test_rate_storm_delta_seconds_form(self):
        net, injector = injector_for(
            FaultRates(rate_storm=1.0, retry_after_seconds=6.0,
                       retry_after_http_date_share=0.0)
        )
        response = fetch(injector)
        assert response.status == http.TOO_MANY_REQUESTS
        assert http.parse_retry_after(response.header("Retry-After")) == 6.0

    def test_rate_storm_http_date_form(self):
        net, injector = injector_for(
            FaultRates(rate_storm=1.0, retry_after_seconds=6.0,
                       retry_after_http_date_share=1.0)
        )
        response = fetch(injector)
        header = response.header("Retry-After")
        assert header.endswith("GMT")
        delay = http.parse_retry_after(header, net.clock.now())
        assert delay == pytest.approx(6.0, abs=1.0)

    def test_flash_ban_answers_403(self):
        net, injector = injector_for(
            FaultRates(flash_ban=1.0, flash_ban_requests=2)
        )
        assert fetch(injector).status == http.FORBIDDEN
        assert injector.counts["flash_ban"] == 1

    def test_hang_charges_hang_seconds(self):
        net, injector = injector_for(FaultRates(hang=1.0, hang_seconds=90.0))
        before = net.clock.now()
        response = fetch(injector)
        # The response DOES arrive (the client-side timeout discards it).
        assert response.ok
        assert net.clock.now() - before >= 90.0

    def test_tarpit_slows_but_succeeds(self):
        net, injector = injector_for(FaultRates(tarpit=1.0, tarpit_seconds=15.0))
        before = net.clock.now()
        response = fetch(injector)
        assert response.ok and response.body == PAGE
        assert net.clock.now() - before >= 15.0

    def test_truncate_cuts_the_closing_tag(self):
        net, injector = injector_for(FaultRates(truncate_body=1.0))
        response = fetch(injector)
        assert response.ok
        assert len(response.body) < len(PAGE)
        assert "</html>" not in response.body

    def test_mangle_strips_class_hooks(self):
        net, injector = injector_for(FaultRates(mangle_body=1.0))
        response = fetch(injector)
        assert response.ok
        assert "class=" not in response.body
        assert "data-chaos=" in response.body

    def test_body_faults_spare_non_html(self):
        net, injector = injector_for(FaultRates(truncate_body=1.0))
        net.site("chaos.example").route(
            "GET", "/api", lambda r: http.json_like_response('{"ok": true}')
        )
        response = fetch(injector, "/api")
        assert response.body == '{"ok": true}'


class TestObservability:
    def test_fault_events_and_counters_emitted(self):
        telemetry = Telemetry()
        net, injector = injector_for(
            FaultRates(flash_ban=1.0, flash_ban_requests=1), telemetry=telemetry
        )
        telemetry.set_clock(net.clock)
        fetch(injector)
        events = [e for e in telemetry.events.events if e.kind == "fault.flash_ban"]
        assert len(events) == 1
        assert events[0].fields["host"] == "chaos.example"
        assert "http://chaos.example/page" in events[0].fields["url"]
        counter = telemetry.metrics.get("faults_injected_total")
        assert counter.value(host="chaos.example", kind="flash_ban") == 1


class TestDeterminism:
    RATES = FaultRates(
        outage=0.05, server_error=0.10, tarpit=0.05, truncate_body=0.05,
        mangle_body=0.05, rate_storm=0.05, flash_ban=0.02,
    )

    def drive(self, seed, epochs=(0, 1)):
        net, injector = injector_for(self.RATES, seed=seed)
        trace = []
        for epoch in epochs:
            injector.begin_iteration(epoch)
            for _ in range(200):
                try:
                    response = fetch(injector)
                    trace.append((response.status, len(response.body)))
                except ConnectionFailed:
                    trace.append(("connect_fail", 0))
        return trace, dict(injector.counts)

    def test_same_seed_same_fault_sequence(self):
        trace_a, counts_a = self.drive(seed=11)
        trace_b, counts_b = self.drive(seed=11)
        assert trace_a == trace_b
        assert counts_a == counts_b
        assert counts_a  # chaos actually fired

    def test_different_seed_different_sequence(self):
        trace_a, _ = self.drive(seed=11)
        trace_b, _ = self.drive(seed=12)
        assert trace_a != trace_b

    def test_epoch_reseed_is_iteration_keyed(self):
        # Re-entering the SAME iteration replays the same stream — the
        # property checkpointed resume relies on.
        replay_a, _ = self.drive(seed=11, epochs=(1,))
        replay_b, _ = self.drive(seed=11, epochs=(1,))
        assert replay_a == replay_b
        other_epoch, _ = self.drive(seed=11, epochs=(2,))
        assert replay_a != other_epoch
