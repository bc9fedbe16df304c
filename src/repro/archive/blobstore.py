"""Content-addressed pack storage for response bodies.

Every HTTP body the crawl observes is stored exactly once, keyed by the
SHA-256 of its bytes — the same idea as a WARC deduplicating revisit
record or a git object store.  Marketplace pages barely change between
iterations, so the dedup ratio is the archive's main compression lever.

Physically, bodies live in per-phase *pack files* rather than one file
per blob: creating a file costs two metadata syscalls (~hundreds of µs
on overlay filesystems) while appending to an already-open pack costs a
buffered write (~µs), and a crawl stores hundreds of new bodies per
iteration.  Packing is what keeps archiving's crawl overhead under the
benchmark's 10% budget — and it is exactly how WARC itself lays records
out on disk.

Layout under ``<root>``::

    iteration_0000.pack      bodies first observed in this phase,
                             concatenated in first-put order
    iteration_0000.pack.idx  sidecar index: one JSONL line per body
                             ({"offset", "sha256", "size"}, append order)

A pack is written once, by the phase that owns it, and never touched
again; the sidecar is written atomically (write-then-rename, by
:func:`~repro.util.jsonl.write_records`) when the phase closes, so a
sidecar on disk always describes a complete pack.  A
phase that stored no new bodies leaves no pack at all.  Crash mid-phase
leaves a torn pack *without* a sidecar — invisible to readers, and the
archive's resume path drops it (:meth:`drop_phase`) before re-crawling
the phase, so a killed+resumed archive is byte-identical to an
uninterrupted twin's.

Reads load the sidecars lazily and serve :meth:`get` with a seek+read
into the owning pack.  Because bodies append in deterministic
first-seen order, two same-seed runs write byte-identical packs.
"""

from __future__ import annotations

import hashlib
import os
from typing import BinaryIO, Dict, Iterator, List, Optional, Tuple

from repro.util.jsonl import read_records, write_records

PACK_SUFFIX = ".pack"
SIDECAR_SUFFIX = ".pack.idx"


def body_sha256(data: bytes) -> str:
    """The content address of a body: lowercase SHA-256 hex."""
    return hashlib.sha256(data).hexdigest()


class BlobNotFound(KeyError):
    """A referenced content address has no blob in the store."""


class BlobStore:
    """A deduplicating, content-addressed pack store."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        #: digest -> (phase stem, offset, size) for every sealed body.
        #: Loaded lazily from the sidecars so read-only opens are free.
        self._entries: Optional[Dict[str, Tuple[str, int, int]]] = None
        # Open-phase state: the pack being appended to right now.
        self._phase: Optional[str] = None
        self._handle: Optional[BinaryIO] = None
        self._offset = 0
        #: digest -> (offset, size) within the open pack, in put order
        #: (dicts preserve insertion order — this IS the sidecar).
        self._phase_index: Dict[str, Tuple[int, int]] = {}
        self._read_handles: Dict[str, BinaryIO] = {}

    # -- paths ---------------------------------------------------------------

    def pack_path(self, phase: str) -> str:
        return os.path.join(self.root, phase + PACK_SUFFIX)

    def sidecar_path(self, phase: str) -> str:
        return os.path.join(self.root, phase + SIDECAR_SUFFIX)

    def phases(self) -> List[str]:
        """Stems of every pack on disk (sidecar-less torn packs included)."""
        stems = set()
        if os.path.isdir(self.root):
            for name in os.listdir(self.root):
                if name.endswith(SIDECAR_SUFFIX):
                    stems.add(name[: -len(SIDECAR_SUFFIX)])
                elif name.endswith(PACK_SUFFIX):
                    stems.add(name[: -len(PACK_SUFFIX)])
        return sorted(stems)

    # -- loading -------------------------------------------------------------

    def _load(self) -> Dict[str, Tuple[str, int, int]]:
        """Read every sidecar once; packs without one are torn → ignored."""
        if self._entries is None:
            entries: Dict[str, Tuple[str, int, int]] = {}
            for phase in self.phases():
                for digest, offset, size in self.sidecar_entries(phase):
                    entries.setdefault(digest, (phase, offset, size))
            self._entries = entries
        return self._entries

    def sidecar_entries(self, phase: str) -> Iterator[Tuple[str, int, int]]:
        try:
            rows = read_records(self.sidecar_path(phase))
        except FileNotFoundError:
            return
        for row in rows:
            yield row["sha256"], row["offset"], row["size"]

    # -- phase lifecycle -----------------------------------------------------

    def begin_phase(self, phase: str) -> None:
        """Start a new pack; bodies put() from here land in it.  The pack
        file itself is created lazily on the first new body."""
        self.flush()
        self._phase = phase

    def flush(self) -> None:
        """Close the open pack and write its sidecar, making every body
        put() since :meth:`begin_phase` durable and readable by other
        stores.  Raises on write failure (e.g. a full disk) instead of
        sealing a hollow archive later."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
            phase = self._phase
            assert phase is not None  # set before the handle ever opens
            write_records(self.sidecar_path(phase), (
                {"offset": offset, "sha256": digest, "size": size}
                for digest, (offset, size) in self._phase_index.items()
            ))
            entries = self._load()
            for digest, (offset, size) in self._phase_index.items():
                entries.setdefault(digest, (phase, offset, size))
        self._phase = None
        self._offset = 0
        self._phase_index = {}

    def drop_phase(self, phase: str) -> None:
        """Remove a phase's pack and sidecar (resume pruning: the phase
        will be re-crawled and its pack rewritten identically)."""
        handle = self._read_handles.pop(phase, None)
        if handle is not None:
            handle.close()
        for path in (self.pack_path(phase), self.sidecar_path(phase)):
            try:
                os.remove(path)
            except FileNotFoundError:
                pass
        self._entries = None  # force a reload past the dropped phase

    # -- write ---------------------------------------------------------------

    def put(self, data: bytes) -> Tuple[str, bool]:
        """Store ``data``; returns ``(digest, created)``.

        ``created`` is False when an identical body was already stored —
        the dedup hit the archive metrics report on.
        """
        digest = body_sha256(data)
        if digest in self._phase_index or digest in self._load():
            return digest, False
        if self._handle is None:
            if self._phase is None:
                # Standalone use without begin_phase(): pick the first
                # free auto stem so an earlier flushed pack survives.
                n = 0
                while os.path.exists(self.pack_path(f"pack_{n:04d}")):
                    n += 1
                self._phase = f"pack_{n:04d}"
            self._handle = open(self.pack_path(self._phase), "wb")
            self._offset = 0
        self._phase_index[digest] = (self._offset, len(data))
        self._handle.write(data)
        self._offset += len(data)
        return digest, True

    # -- read ----------------------------------------------------------------

    def _locate(self, digest: str) -> Tuple[str, int, int, bool]:
        """(phase, offset, size, open) for a digest; raises BlobNotFound."""
        in_phase = self._phase_index.get(digest)
        if in_phase is not None and self._phase is not None:
            offset, size = in_phase
            return self._phase, offset, size, True
        entry = self._load().get(digest)
        if entry is None:
            raise BlobNotFound(digest)
        phase, offset, size = entry
        return phase, offset, size, False

    def get(self, digest: str) -> bytes:
        phase, offset, size, is_open = self._locate(digest)
        if is_open and self._handle is not None:
            # Reading back from the pack we're appending to: push the
            # buffered tail to the OS first so the slice is visible.
            self._handle.flush()
        handle = self._read_handles.get(phase)
        if handle is None:
            try:
                handle = open(self.pack_path(phase), "rb")
            except FileNotFoundError:
                raise BlobNotFound(digest) from None
            self._read_handles[phase] = handle
        handle.seek(offset)
        data = handle.read(size)
        if len(data) != size:
            raise BlobNotFound(digest)
        return data

    def has(self, digest: str) -> bool:
        return digest in self._phase_index or digest in self._load()

    def size_of(self, digest: str) -> int:
        _phase, _offset, size, _open = self._locate(digest)
        return size

    # -- enumeration ---------------------------------------------------------

    def digests(self) -> Iterator[str]:
        """All stored content addresses (open phase included), sorted."""
        yield from sorted(set(self._load()) | set(self._phase_index))

    def total_bytes(self) -> int:
        entries = self._load()
        return (
            sum(size for _p, _o, size in entries.values())
            + sum(
                size for digest, (_o, size) in self._phase_index.items()
                if digest not in entries
            )
        )

    def count(self) -> int:
        return len(set(self._load()) | set(self._phase_index))

    # -- integrity -----------------------------------------------------------

    def verify(self) -> Iterator[str]:
        """Audit every pack against its sidecar: each body slice must
        re-hash to its address, offsets must tile the pack exactly, and
        every pack must have a sidecar.  Yields one problem per finding."""
        self.flush()  # an open phase would otherwise look torn
        seen: Dict[str, str] = {}
        for phase in self.phases():
            pack = self.pack_path(phase)
            if not os.path.exists(self.sidecar_path(phase)):
                yield f"pack {phase}: no sidecar index (torn phase?)"
                continue
            rows = list(self.sidecar_entries(phase))
            if not os.path.exists(pack):
                yield f"pack {phase}: pack file missing"
                continue
            expected = 0
            with open(pack, "rb") as handle:
                for digest, offset, size in rows:
                    if offset != expected:
                        yield (
                            f"pack {phase}: blob {digest} at offset "
                            f"{offset}, expected {expected}"
                        )
                    expected = offset + size
                    handle.seek(offset)
                    data = handle.read(size)
                    if len(data) != size:
                        yield (
                            f"pack {phase}: blob {digest} truncated "
                            f"({len(data)} of {size} bytes)"
                        )
                        continue
                    actual = body_sha256(data)
                    if actual != digest:
                        yield (
                            f"blob {digest} is corrupt: content hashes "
                            f"to {actual}"
                        )
                    if digest in seen:
                        yield (
                            f"blob {digest}: stored twice "
                            f"(packs {seen[digest]} and {phase})"
                        )
                    seen.setdefault(digest, phase)
            actual_size = os.path.getsize(pack)
            if actual_size != expected:
                yield (
                    f"pack {phase}: {actual_size} bytes on disk, sidecar "
                    f"records {expected}"
                )


__all__ = ["BlobNotFound", "BlobStore", "body_sha256"]
