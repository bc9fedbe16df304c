"""ReplayClient unit behavior: faithful playback, loud divergence.

(The full live-vs-replay byte-identity guarantee is covered by
``tests/integration/test_archive_replay.py``; these tests pin down the
client-level mechanics with a hand-built archive.)
"""

from types import SimpleNamespace

import pytest

from repro.archive.reader import ArchiveReader
from repro.archive.replay import ReplayClient, ReplayClock, ReplayMismatch
from repro.archive.writer import ArchiveWriter
from repro.web import http
from repro.web.client import HttpClient
from repro.web.http import RequestTimeout, TooManyRedirects
from repro.web.server import Internet, Site

CONFIG = SimpleNamespace(
    seed=5, scale=0.01, iterations=1, include_underground=False,
    chaos_profile="off",
)


def build_archive(tmp_path, drive):
    """Record ``drive(client)`` against a toy site; return a reader."""
    net = Internet()
    site = Site("s.example", clock=net.clock)
    net.register(site)
    site.route("GET", "/a", lambda r: http.html_response("page a"))
    site.route(
        "GET", "/q",
        lambda r: http.html_response(f"page {r.params.get('page', '?')}"),
    )
    site.route("POST", "/submit", lambda r: http.html_response("posted"))
    site.route("GET", "/loop", lambda r: http.redirect_response("/loop"))
    writer = ArchiveWriter(str(tmp_path / "archive"), clock=net.clock)
    writer.begin_iteration(0)
    client = HttpClient(net, capture=writer)
    drive(client)
    writer.seal(CONFIG)
    return ArchiveReader.open(str(tmp_path / "archive"))


def replay_client(reader, client_id="crawler"):
    clock = ReplayClock()
    streams = reader.outcome_streams()
    return ReplayClient(reader, streams.get(client_id, []), client_id, clock)


class TestPlayback:
    def test_replays_bodies_params_and_forms(self, tmp_path):
        def drive(client):
            client.get("http://s.example/a")
            client.get("http://s.example/q", page="2")
            client.post("http://s.example/submit", form={"k": "v"})

        reader = build_archive(tmp_path, drive)
        replay = replay_client(reader)
        assert replay.get("http://s.example/a").body == "page a"
        assert replay.get("http://s.example/q", page="2").body == "page 2"
        assert replay.post("http://s.example/submit", form={"k": "v"}).body == "posted"
        assert replay.remaining == 0

    def test_clock_pinned_to_archived_instants(self, tmp_path):
        def drive(client):
            client.get("http://s.example/a")
            client.get("http://s.example/a")  # site latency in between

        reader = build_archive(tmp_path, drive)
        replay = replay_client(reader)
        outcomes = reader.outcome_streams()["crawler"]
        replay.get("http://s.example/a")
        assert replay.clock.now() == outcomes[0].sim_at
        replay.get("http://s.example/a")
        assert replay.clock.now() == outcomes[1].sim_at
        # Live site latency means the instants differ — the replay
        # jumped rather than waited, but lands on identical timestamps.
        assert outcomes[1].sim_at > outcomes[0].sim_at

    def test_archived_errors_raise_the_original_type(self, tmp_path):
        def drive(client):
            with pytest.raises(TooManyRedirects):
                client.get("http://s.example/loop")

        reader = build_archive(tmp_path, drive)
        replay = replay_client(reader)
        with pytest.raises(TooManyRedirects):
            replay.get("http://s.example/loop")

    def test_unknown_error_type_degrades_to_http_error(self):
        from repro.archive.records import ExchangeRecord
        from repro.web.http import HttpError

        record = ExchangeRecord(
            seq=0, role="outcome", phase="iteration_0000", client="crawler",
            method="GET", url="http://s.example/a",
            error={"type": "FutureErrorClass", "message": "boom"},
        )
        replay = ReplayClient(None, [record], "crawler", ReplayClock())
        with pytest.raises(HttpError, match="boom"):
            replay.get("http://s.example/a")


class TestDivergence:
    def test_wrong_url_is_a_mismatch(self, tmp_path):
        reader = build_archive(
            tmp_path, lambda client: client.get("http://s.example/a")
        )
        replay = replay_client(reader)
        with pytest.raises(ReplayMismatch, match="diverged at seq="):
            replay.get("http://s.example/other")

    def test_wrong_params_are_a_mismatch(self, tmp_path):
        reader = build_archive(
            tmp_path,
            lambda client: client.get("http://s.example/q", page="2"),
        )
        replay = replay_client(reader)
        with pytest.raises(ReplayMismatch):
            replay.get("http://s.example/q", page="3")

    def test_exhausted_stream_is_a_mismatch(self, tmp_path):
        reader = build_archive(
            tmp_path, lambda client: client.get("http://s.example/a")
        )
        replay = replay_client(reader)
        replay.get("http://s.example/a")
        with pytest.raises(ReplayMismatch, match="exhausted"):
            replay.get("http://s.example/a")

    def test_method_case_is_normalized_not_a_mismatch(self, tmp_path):
        reader = build_archive(
            tmp_path, lambda client: client.get("http://s.example/a")
        )
        replay = replay_client(reader)
        assert replay.request("get", "http://s.example/a").body == "page a"
