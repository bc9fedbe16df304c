"""Seal → open → verify, and the corruption drills behind exit code 2.

Every tamper class ``repro archive verify`` must catch gets a test:
flipped blob bytes, edited index lines, truncated indexes, missing and
orphaned blobs, and a broken hash chain.
"""

import json
import os
from types import SimpleNamespace

import pytest

from repro.archive.reader import ArchiveReader
from repro.archive.records import ArchiveError
from repro.archive.writer import ARCHIVE_MANIFEST, ArchiveWriter
from repro.web import http
from repro.web.client import HttpClient
from repro.web.server import Internet, Site

CONFIG = SimpleNamespace(
    seed=11, scale=0.01, iterations=2, include_underground=False,
    chaos_profile="off",
)


@pytest.fixture()
def sealed(tmp_path):
    """A small sealed archive: two iterations over a three-page site."""
    net = Internet()
    site = Site("s.example", clock=net.clock)
    net.register(site)
    pages = {
        "/listings": "<html>offers: /offer/1 /offer/2</html>",
        "/offer/1": "<html>offer one</html>",
        "/offer/2": "<html>offer two</html>",
    }
    for path, body in pages.items():
        site.route("GET", path, lambda r, body=body: http.html_response(body))
    writer = ArchiveWriter(str(tmp_path / "archive"), clock=net.clock)
    client = HttpClient(net, capture=writer)
    for iteration in range(2):
        writer.begin_iteration(iteration)
        for path in pages:
            client.get(f"http://s.example{path}")
        writer.end_iteration(iteration)
    writer.seal(CONFIG)
    return str(tmp_path / "archive")


class TestOpen:
    def test_sealed_archive_opens_clean(self, sealed):
        reader = ArchiveReader.open(sealed)
        assert reader.verify() == []
        # 6 GETs x 2 roles, plus the one robots.txt fetch.
        assert reader.manifest["exchanges_total"] == 13
        assert reader.manifest["outcomes_total"] == 6
        # Bodies repeat across iterations; the fourth is robots.txt's 404.
        assert reader.manifest["blobs_total"] == 4
        assert reader.config["seed"] == 11

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(ArchiveError, match="no archive directory"):
            ArchiveReader.open(str(tmp_path / "nope"))

    def test_unsealed_archive_refused(self, tmp_path):
        net = Internet()
        writer = ArchiveWriter(str(tmp_path / "arch"), clock=net.clock)
        writer.begin_iteration(0)
        # Died before seal(): there is no manifest at all.
        with pytest.raises(ArchiveError, match="died before sealing"):
            ArchiveReader.open(str(tmp_path / "arch"))

    def test_sealed_false_manifest_refused(self, sealed):
        path = os.path.join(sealed, ARCHIVE_MANIFEST)
        manifest = json.load(open(path))
        manifest["sealed"] = False
        json.dump(manifest, open(path, "w"))
        with pytest.raises(ArchiveError, match="not sealed"):
            ArchiveReader.open(sealed)

    def test_wrong_schema_refused(self, sealed):
        path = os.path.join(sealed, ARCHIVE_MANIFEST)
        manifest = json.load(open(path))
        manifest["schema"] = "someone-elses-format/v9"
        json.dump(manifest, open(path, "w"))
        with pytest.raises(ArchiveError, match="unknown archive schema"):
            ArchiveReader.open(sealed)


class TestVerify:
    def test_flipped_blob_byte_detected(self, sealed):
        reader = ArchiveReader.open(sealed)
        stem = reader.blobs.phases()[0]
        digest, offset, _size = next(reader.blobs.sidecar_entries(stem))
        path = reader.blobs.pack_path(stem)
        data = bytearray(open(path, "rb").read())
        data[offset] ^= 0x01
        open(path, "wb").write(bytes(data))
        problems = ArchiveReader.open(sealed).verify()
        assert any("corrupt" in p and digest in p for p in problems)
        assert any(f"pack {stem}: hash mismatch" in p for p in problems)
        assert any("chain broken" in p for p in problems)

    def test_edited_index_line_breaks_hash_and_chain(self, sealed):
        reader = ArchiveReader.open(sealed)
        name = reader.index_names()[0]
        path = os.path.join(sealed, "index", name)
        text = open(path).read().replace("/offer/1", "/offer/9", 1)
        open(path, "w").write(text)
        problems = ArchiveReader.open(sealed).verify()
        assert any(f"index {name}: hash mismatch" in p for p in problems)
        assert any("chain broken" in p for p in problems)

    def test_truncated_index_detected(self, sealed):
        reader = ArchiveReader.open(sealed)
        name = reader.index_names()[0]
        path = os.path.join(sealed, "index", name)
        lines = open(path).readlines()
        open(path, "w").writelines(lines[:-1])
        problems = ArchiveReader.open(sealed).verify()
        assert any("records on disk, manifest claims" in p for p in problems)

    def test_deleted_pack_blobs_detected(self, sealed):
        reader = ArchiveReader.open(sealed)
        stem = reader.blobs.phases()[0]
        digests = [d for d, _o, _s in reader.blobs.sidecar_entries(stem)]
        os.remove(reader.blobs.pack_path(stem))
        os.remove(reader.blobs.sidecar_path(stem))
        problems = ArchiveReader.open(sealed).verify()
        for digest in digests:
            assert any(
                f"blob {digest}: referenced but missing" in p
                for p in problems
            )
        assert any(f"pack {stem}: file missing" in p for p in problems)

    def test_orphan_blob_detected(self, sealed):
        # Smuggle a pack of one unreferenced body into a sealed archive.
        store = ArchiveReader.open(sealed).blobs
        store.begin_phase("zz_smuggled")
        digest, created = store.put(b"smuggled body nobody references")
        assert created
        store.flush()
        problems = ArchiveReader.open(sealed).verify()
        assert any(f"blob {digest}: orphaned" in p for p in problems)
        assert any("pack zz_smuggled: not listed" in p for p in problems)
        assert any("blobs in the store, manifest claims" in p for p in problems)


class TestSealBookkeeping:
    def test_entries_iterate_in_seq_order(self, sealed):
        records = list(ArchiveReader.open(sealed).entries())
        assert [r.seq for r in records] == list(range(len(records)))

    def test_summary_matches_manifest(self, sealed):
        reader = ArchiveReader.open(sealed)
        summary = reader.summary()
        assert summary["sealed"] is True
        assert summary["blobs_total"] == reader.manifest["blobs_total"]
        assert summary["chain_sha256"] == reader.manifest["chain_sha256"]

    def test_response_for_rebuilds_archived_body(self, sealed):
        reader = ArchiveReader.open(sealed)
        record = next(
            r for r in reader.entries()
            if r.is_response and r.url.endswith("/offer/1")
        )
        response = reader.response_for(record)
        assert response.status == 200
        assert response.body == "<html>offer one</html>"
