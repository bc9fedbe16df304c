"""Capture semantics: the archive records the wire, not the repair.

Satellite guarantee under test: responses are archived *pre-retry and
pre-refetch* — an intermediate 503 that the client's backoff machinery
papers over still lands in the archive as an ``exchange``, while the
``outcome`` stream records only what the caller actually received.
"""

import json
import os

import pytest

from repro.archive.records import (
    ROLE_EXCHANGE,
    ROLE_OUTCOME,
    ArchiveError,
    ExchangeRecord,
)
from repro.archive.writer import ArchiveWriter, phase_sort_key
from repro.web import http
from repro.web.client import HttpClient
from repro.web.http import ConnectionFailed, TooManyRedirects
from repro.web.server import Internet, Site


def build_capture(tmp_path):
    net = Internet()
    site = Site("s.example", clock=net.clock)
    net.register(site)
    writer = ArchiveWriter(str(tmp_path / "archive"), clock=net.clock)
    writer.begin_iteration(0)
    client = HttpClient(net, capture=writer)
    return net, site, writer, client


def records_by_role(writer, robots=False):
    """Archived exchanges and outcomes; the robots.txt exchange the
    client makes before its first request to a host only with
    ``robots=True``."""
    writer._close_phase()
    index_dir = os.path.join(writer.root, "index")
    exchanges, outcomes = [], []
    for name in sorted(os.listdir(index_dir), key=phase_sort_key):
        with open(os.path.join(index_dir, name), encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    record = ExchangeRecord.from_dict(json.loads(line))
                    if record.note == "robots" and not robots:
                        continue
                    (exchanges if record.role == ROLE_EXCHANGE
                     else outcomes).append(record)
    return exchanges, outcomes


class TestPreRetryCapture:
    def test_intermediate_503s_archived_as_observed(self, tmp_path):
        net, site, writer, client = build_capture(tmp_path)
        attempts = {"n": 0}

        def flaky(request):
            attempts["n"] += 1
            if attempts["n"] < 3:
                return http.error_response(http.SERVICE_UNAVAILABLE)
            return http.html_response("finally")

        site.route("GET", "/flaky", flaky)
        response = client.get("http://s.example/flaky")
        assert response.body == "finally"

        exchanges, outcomes = records_by_role(writer)
        # Three wire exchanges (503, 503, 200) but a single outcome: the
        # retries are archive truth, not caller truth.
        assert [e.status for e in exchanges] == [503, 503, 200]
        assert [o.status for o in outcomes] == [200]
        assert outcomes[0].url == "http://s.example/flaky"

    def test_redirect_hops_are_exchanges_final_page_is_outcome(self, tmp_path):
        net, site, writer, client = build_capture(tmp_path)
        site.route("GET", "/a", lambda r: http.redirect_response("/b"))
        site.route("GET", "/b", lambda r: http.html_response("there"))
        client.get("http://s.example/a")
        exchanges, outcomes = records_by_role(writer)
        assert [e.status for e in exchanges] == [302, 200]
        assert len(outcomes) == 1
        # The outcome keys on the *requested* URL (the replay lookup key)
        # while the archived response body is the post-redirect page.
        assert outcomes[0].url == "http://s.example/a"
        assert writer.blobs.get(outcomes[0].sha256) == b"there"

    def test_error_outcome_archived_when_request_raises(self, tmp_path):
        net, site, writer, client = build_capture(tmp_path)
        site.route("GET", "/loop", lambda r: http.redirect_response("/loop"))
        with pytest.raises(TooManyRedirects):
            client.get("http://s.example/loop")
        exchanges, outcomes = records_by_role(writer)
        assert all(e.status == 302 for e in exchanges)
        assert len(outcomes) == 1 and outcomes[0].status is None
        assert outcomes[0].error["type"] == "TooManyRedirects"

    def test_connection_failure_archived_as_error_exchange(self, tmp_path):
        net, site, writer, client = build_capture(tmp_path)
        with pytest.raises(ConnectionFailed):
            client.get("http://unregistered.example/x")
        exchanges, outcomes = records_by_role(writer)
        assert exchanges and exchanges[0].error["type"] == "ConnectionFailed"
        assert outcomes and outcomes[0].error["type"] == "ConnectionFailed"

    def test_robots_fetch_archived_with_note(self, tmp_path):
        net = Internet()
        site = Site("s.example", clock=net.clock)
        net.register(site)
        site.route("GET", "/x", lambda r: http.html_response("ok"))
        writer = ArchiveWriter(str(tmp_path / "archive"), clock=net.clock)
        writer.begin_iteration(0)
        client = HttpClient(net, capture=writer)
        client.get("http://s.example/x")
        exchanges, _ = records_by_role(writer, robots=True)
        notes = [e.note for e in exchanges]
        assert "robots" in notes
        robots = next(e for e in exchanges if e.note == "robots")
        assert robots.url == "http://s.example/robots.txt"


class TestWriterLifecycle:
    def test_capture_outside_a_phase_raises(self, tmp_path):
        net, site, writer, client = build_capture(tmp_path)
        site.route("GET", "/x", lambda r: http.html_response("ok"))
        writer.end_iteration(0)
        with pytest.raises(ArchiveError, match="phase"):
            client.get("http://s.example/x")

    def test_sealed_archive_rejects_captures(self, tmp_path):
        net, site, writer, client = build_capture(tmp_path)
        site.route("GET", "/x", lambda r: http.html_response("ok"))
        client.get("http://s.example/x")

        class Cfg:
            seed, scale, iterations, include_underground = 1, 0.01, 1, False

        writer.seal(Cfg())
        with pytest.raises(ArchiveError, match="sealed"):
            client.get("http://s.example/x")

    def test_fresh_writer_wipes_stale_archive(self, tmp_path):
        net, site, writer, client = build_capture(tmp_path)
        site.route("GET", "/x", lambda r: http.html_response("ok"))
        client.get("http://s.example/x")
        assert writer.blobs.count() == 2  # the page and the robots.txt 404
        # A second non-resume writer on the same dir must not inherit
        # the first run's blobs or indexes.
        fresh = ArchiveWriter(str(tmp_path / "archive"), clock=net.clock)
        assert fresh.blobs.count() == 0
        assert list(fresh._index_files()) == []

    def test_identical_bodies_dedup_across_iterations(self, tmp_path):
        net, site, writer, client = build_capture(tmp_path)
        site.route("GET", "/static", lambda r: http.html_response("same page"))
        for iteration in range(3):
            if iteration:
                writer.begin_iteration(iteration)
            client.get("http://s.example/static")
            writer.end_iteration(iteration)
        # One page blob for six index references, plus the robots.txt 404.
        assert writer.blobs.count() == 2

    def test_writer_lines_are_canonical_record_json(self, tmp_path):
        """The writer serializes payload dicts directly on the hot path;
        every line must still round-trip byte-identically through
        ExchangeRecord, or the two schemas have drifted apart."""
        net, site, writer, client = build_capture(tmp_path)
        site.route("GET", "/x", lambda r: http.html_response("ok"))
        site.route("GET", "/gone", lambda r: http.Response(status=404))
        client.get("http://s.example/x", params={"page": "2"})
        with pytest.raises(Exception):
            client.get("http://missing.example/")
        writer._close_phase()
        index = os.path.join(writer.root, "index", "iteration_0000.jsonl")
        lines = [l for l in open(index, encoding="utf-8") if l.strip()]
        assert lines
        for line in lines:
            assert ExchangeRecord.from_dict(json.loads(line)).to_json() \
                == line.strip()
