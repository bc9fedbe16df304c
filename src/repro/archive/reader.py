"""Read side of the crawl archive: open, iterate, verify.

An :class:`ArchiveReader` only opens *sealed* archives — an unsealed
directory is a run that died before :meth:`ArchiveWriter.seal`, and
nothing downstream (replay, diff, verify) should trust it.

:meth:`ArchiveReader.verify` is the integrity audit behind
``repro archive verify``: it re-hashes every index file, re-derives the
manifest hash chain, re-hashes every blob, and cross-checks the record
counts and blob references the manifest claims.  Any discrepancy — a
flipped byte in a body, a truncated index, an orphaned or missing blob —
comes back as one human-readable problem string.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterator, List, Optional

from repro.archive.blobstore import BlobNotFound, BlobStore
from repro.archive.records import ROLE_OUTCOME, ArchiveError, ExchangeRecord
from repro.archive.writer import (
    ARCHIVE_MANIFEST,
    ARCHIVE_SCHEMA,
    BLOBS_DIRNAME,
    INDEX_DIRNAME,
    chain_sha256,
    file_sha256,
)
from repro.util.jsonl import read_records
from repro.web.http import Response


class ArchiveReader:
    """A sealed crawl archive, opened for iteration and verification."""

    def __init__(self, root: str, manifest: dict) -> None:
        self.root = root
        self.manifest = manifest
        self.blobs = BlobStore(os.path.join(root, BLOBS_DIRNAME))
        self._index_dir = os.path.join(root, INDEX_DIRNAME)

    @classmethod
    def open(cls, root: str) -> "ArchiveReader":
        manifest_path = os.path.join(root, ARCHIVE_MANIFEST)
        if not os.path.isdir(root):
            raise ArchiveError(f"no archive directory at {root}")
        if not os.path.exists(manifest_path):
            raise ArchiveError(
                f"no {ARCHIVE_MANIFEST} in {root}: not an archive, or the "
                "run died before sealing it"
            )
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ArchiveError(f"corrupt {ARCHIVE_MANIFEST} in {root}: {exc}")
        if manifest.get("schema") != ARCHIVE_SCHEMA:
            raise ArchiveError(
                f"unknown archive schema {manifest.get('schema')!r} "
                f"(expected {ARCHIVE_SCHEMA})"
            )
        if not manifest.get("sealed"):
            raise ArchiveError(f"archive at {root} is not sealed")
        return cls(root, manifest)

    # -- config --------------------------------------------------------------

    @property
    def config(self) -> dict:
        """The study-config subset the manifest embeds (seed, scale, …)."""
        return self.manifest["config"]

    @property
    def sim_seconds(self) -> float:
        return float(self.manifest["sim_seconds"])

    def summary(self) -> dict:
        """The same archive section the writer puts in a run manifest."""
        return {
            "dir": self.root,
            "sealed": self.manifest["sealed"],
            "exchanges_total": self.manifest["exchanges_total"],
            "outcomes_total": self.manifest["outcomes_total"],
            "blobs_total": self.manifest["blobs_total"],
            "bytes_total": self.manifest["bytes_total"],
            "dedup_ratio": self.manifest["dedup_ratio"],
            "chain_sha256": self.manifest["chain_sha256"],
        }

    # -- iteration -----------------------------------------------------------

    def index_names(self) -> List[str]:
        return [entry["name"] for entry in self.manifest["indexes"]]

    def entries(self, index_name: Optional[str] = None) -> Iterator[ExchangeRecord]:
        """Records in manifest (phase, then line) order — global seq order."""
        names = [index_name] if index_name is not None else self.index_names()
        for name in names:
            path = os.path.join(self._index_dir, name)
            try:
                records = [ExchangeRecord.from_dict(payload)
                           for payload in read_records(path)]
            except FileNotFoundError:
                raise ArchiveError(f"index file {name} listed in the "
                                   f"manifest is missing from {self.root}")
            except (ValueError, TypeError) as exc:
                raise ArchiveError(f"corrupt index file {name}: {exc}")
            yield from records

    def outcome_streams(self) -> Dict[str, List[ExchangeRecord]]:
        """Per-client outcome sequences — the replay scripts."""
        streams: Dict[str, List[ExchangeRecord]] = {}
        for record in self.entries():
            if record.role == ROLE_OUTCOME:
                streams.setdefault(record.client, []).append(record)
        return streams

    # -- bodies --------------------------------------------------------------

    def body(self, digest: str) -> bytes:
        try:
            return self.blobs.get(digest)
        except BlobNotFound:
            raise ArchiveError(f"referenced blob {digest} is missing")

    def response_for(self, record: ExchangeRecord) -> Response:
        """Reconstruct the :class:`Response` a record archived."""
        if record.status is None:
            raise ArchiveError(
                f"record seq={record.seq} archived an error, not a response"
            )
        return Response(
            status=record.status,
            body=self.body(record.sha256).decode("utf-8"),
            headers=dict(record.headers),
            url=record.response_url,
            set_cookies=dict(record.set_cookies),
            elapsed=record.elapsed,
        )

    # -- integrity -----------------------------------------------------------

    def verify(self) -> List[str]:
        """Re-hash everything; returns one problem string per finding."""
        problems: List[str] = []
        referenced: Dict[str, int] = {}
        entries_total = 0
        hashes: List[str] = []
        for entry in self.manifest["indexes"]:
            name = entry["name"]
            path = os.path.join(self._index_dir, name)
            if not os.path.exists(path):
                problems.append(f"index {name}: file missing")
                continue
            actual = file_sha256(path)
            hashes.append(actual)
            if actual != entry["sha256"]:
                problems.append(
                    f"index {name}: hash mismatch (manifest {entry['sha256']}, "
                    f"file {actual})"
                )
            count = 0
            try:
                for record in self.entries(name):
                    count += 1
                    if record.sha256 is not None:
                        referenced[record.sha256] = record.size
            except ArchiveError as exc:
                problems.append(str(exc))
                continue
            if count != entry["entries"]:
                problems.append(
                    f"index {name}: {count} records on disk, manifest "
                    f"claims {entry['entries']}"
                )
            entries_total += count
        # Pack files and their sidecars: hash each against the manifest
        # and extend the chain the same way seal() built it.
        claimed_packs = set()
        for entry in self.manifest.get("packs", []):
            stem = entry["name"]
            claimed_packs.add(stem)
            for key, path, label in (
                ("sha256", self.blobs.pack_path(stem), f"pack {stem}"),
                (
                    "idx_sha256",
                    self.blobs.sidecar_path(stem),
                    f"pack {stem} sidecar",
                ),
            ):
                if not os.path.exists(path):
                    problems.append(f"{label}: file missing")
                    continue
                actual = file_sha256(path)
                hashes.append(actual)
                if actual != entry[key]:
                    problems.append(
                        f"{label}: hash mismatch (manifest {entry[key]}, "
                        f"file {actual})"
                    )
        for stem in self.blobs.phases():
            if stem not in claimed_packs:
                problems.append(f"pack {stem}: not listed in the manifest")
        chain = chain_sha256(hashes)
        if chain != self.manifest["chain_sha256"]:
            problems.append(
                f"manifest chain broken: recomputed {chain}, manifest "
                f"claims {self.manifest['chain_sha256']}"
            )
        if entries_total != self.manifest["exchanges_total"]:
            problems.append(
                f"{entries_total} records across indexes, manifest claims "
                f"{self.manifest['exchanges_total']}"
            )
        # Blob level: every pack slice re-hashes to its address, every
        # referenced body is present at its recorded size, no orphans.
        problems.extend(self.blobs.verify())
        on_disk = set(self.blobs.digests())
        for digest, size in sorted(referenced.items()):
            if digest not in on_disk:
                problems.append(f"blob {digest}: referenced but missing")
                continue
            if self.blobs.size_of(digest) != size:
                problems.append(
                    f"blob {digest}: {self.blobs.size_of(digest)} bytes "
                    f"in its pack, index records {size}"
                )
        for digest in sorted(on_disk - set(referenced)):
            problems.append(f"blob {digest}: orphaned (no index references it)")
        if len(on_disk) != self.manifest["blobs_total"]:
            problems.append(
                f"{len(on_disk)} blobs in the store, manifest claims "
                f"{self.manifest['blobs_total']}"
            )
        return problems


__all__ = ["ArchiveReader"]
