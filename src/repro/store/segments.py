"""The append-only segmented record store.

Layout of a store directory::

    <dir>/
      store.json                 # manifest (repro.store/v1), atomic replace
      segments/
        listings-000000.seg      # JSONL records + one footer line
        listings-000001.seg
        profiles-000000.seg
        ...

Records append to fixed-size JSONL **segments**, one family per record
type.  When a segment reaches ``segment_max_records`` it is *sealed*:
a footer line carrying the record count and the SHA-256 of the payload
bytes is appended, the file is fsynced, and the manifest is atomically
replaced to claim it.  The manifest is therefore always a consistent
snapshot of the sealed prefix; the at-most-one unsealed tail segment
per record type is the only part of the store a crash can tear.

Crash recovery on read:

* a **torn tail** (truncated final line after a SIGKILL mid-append) is
  logically truncated — the intact prefix loads, the partial line is
  dropped and counted in ``store_recovered_tail_total``;
* a **corrupt sealed segment** (checksum or count mismatch, undecodable
  line — e.g. a bit flip on cold media) is quarantined through the
  :class:`~repro.contracts.quarantine.QuarantineStore` dead-letter
  channel and skipped, so one rotten segment costs its own records, not
  the run;
* a missing manifest is not fatal: every segment is scanned as a tail
  (footers still validate when present).

Reads are streaming: :meth:`StoreReader.iter_records` yields one record
dict at a time, holding at most one segment's bytes in memory.

Each segment is a :class:`~repro.util.jsonl.RecordLog`, and every
write routes through an optional
:class:`~repro.faults.disk.DiskFaultInjector`: ENOSPC raises
:class:`~repro.util.jsonl.DiskFullError` after the log has truncated
away any partial line (callers flush what fits via
:meth:`StoreWriter.seal` with a ``partial`` reason); torn writes are
truncated back and retried once; fsync failures fail the seal loudly —
a store that cannot promise durability must not pretend to.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs.schemas import STORE_SCHEMA, artifact_schema
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.util.fileio import atomic_write_json
from repro.util.jsonl import DiskWriteError, RecordLog, split_lines

STORE_MANIFEST_FILENAME = "store.json"
SEGMENTS_DIRNAME = "segments"
SEGMENT_SUFFIX = ".seg"

#: Records per segment before it seals.  Small enough that one segment
#: in memory is bounded (~hundreds of KB), large enough that manifest
#: rewrites stay rare.
DEFAULT_SEGMENT_RECORDS = 512

#: The footer line's sentinel key (no record payload carries it).
FOOTER_KEY = "__segment_footer__"

#: Quarantine rules the loader emits.
RULE_SEGMENT_CORRUPT = "store_segment_corrupt"
RULE_LINE_CORRUPT = "store_decode_error"

#: ``source`` value for store-loader quarantines (the dead-letter
#: store's provenance field).
SOURCE_STORE_LOAD = "store_load"


class StoreError(RuntimeError):
    """A store directory is missing, unreadable, or structurally wrong.
    The message is a single printable line."""


def segment_name(record_type: str, seq: int) -> str:
    return f"{record_type}-{seq:06d}{SEGMENT_SUFFIX}"


def _parse_segment_name(name: str) -> Optional[Tuple[str, int]]:
    if not name.endswith(SEGMENT_SUFFIX):
        return None
    stem = name[:-len(SEGMENT_SUFFIX)]
    record_type, _, seq = stem.rpartition("-")
    if not record_type or not seq.isdigit():
        return None
    return record_type, int(seq)


class _OpenSegment:
    """Write-side bookkeeping of the active (unsealed) tail segment."""

    __slots__ = ("record_type", "name", "log", "records", "hasher")

    def __init__(self, record_type: str, log: RecordLog) -> None:
        self.record_type = record_type
        self.name = os.path.basename(log.path)
        self.log = log
        self.records = 0
        self.hasher = hashlib.sha256()


def existing_store_artifact(directory: str) -> Optional[str]:
    """The first store artifact already present in ``directory``
    (manifest or segment file), or None when no store was written there."""
    if os.path.exists(os.path.join(directory, STORE_MANIFEST_FILENAME)):
        return STORE_MANIFEST_FILENAME
    segments_dir = os.path.join(directory, SEGMENTS_DIRNAME)
    if os.path.isdir(segments_dir):
        for name in sorted(os.listdir(segments_dir)):
            if name.endswith(SEGMENT_SUFFIX):
                return os.path.join(SEGMENTS_DIRNAME, name)
    return None


class StoreWriter:
    """Appends records to a store directory; seal-as-you-go durability.

    A store directory is **write-once**: the writer refuses a directory
    that already holds a manifest or segment files.  Reopening existing
    segments in append mode would restart sequence numbers at 0, mix
    two runs' records in one file, and break every footer count — the
    previous run's data must be read, not extended.  Point each run at
    a fresh directory (or delete the old store first).

    Usable as a context manager: a clean ``with`` exit seals the store;
    an exception leaves whatever was flushed on disk for the reader's
    recovery paths (that *is* the crash story, not a leak).
    """

    def __init__(self, directory: str,
                 segment_max_records: int = DEFAULT_SEGMENT_RECORDS,
                 faults=None,
                 telemetry: Optional[Telemetry] = None) -> None:
        if segment_max_records < 1:
            raise ValueError("segment_max_records must be >= 1")
        self.directory = directory
        self.segments_dir = os.path.join(directory, SEGMENTS_DIRNAME)
        artifact = existing_store_artifact(directory)
        if artifact is not None:
            raise StoreError(
                f"{directory} already holds a store ({artifact}); "
                f"appending would corrupt it — use a fresh directory "
                f"or delete the old store first"
            )
        os.makedirs(self.segments_dir, exist_ok=True)
        self.segment_max_records = segment_max_records
        self.faults = faults
        self.telemetry = telemetry or NULL_TELEMETRY
        self._m_segments = self.telemetry.metrics.counter(
            "store_segments_total", "sealed store segments",
        )
        self._m_bytes = self.telemetry.metrics.counter(
            "store_bytes_total", "record payload bytes appended",
            labels=("record_type",),
        )
        #: record_type -> active segment.
        self._open: Dict[str, _OpenSegment] = {}
        #: Sealed-segment manifest entries, in seal order.
        self._sealed: List[dict] = []
        #: record_type -> next segment sequence number.
        self._next_seq: Dict[str, int] = {}
        #: record_type -> records appended (sealed + active).
        self._counts: Dict[str, int] = {}
        self._finished = False

    # -- context manager ---------------------------------------------------

    def __enter__(self) -> "StoreWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.seal()
        else:
            self.close()

    # -- appends -----------------------------------------------------------

    def append(self, record_type: str, payload: dict) -> None:
        """Append one record; raises :class:`DiskFullError` /
        :class:`DiskWriteError` on unmaskable storage faults, with the
        store left consistent (no partial line)."""
        if self._finished:
            raise StoreError("store is sealed; no further appends")
        segment = self._open.get(record_type)
        if segment is None:
            segment = self._new_segment(record_type)
        encoded = segment.log.append(payload)
        segment.records += 1
        segment.hasher.update(encoded)
        self._counts[record_type] = self._counts.get(record_type, 0) + 1
        self._m_bytes.inc(len(encoded), record_type=record_type)
        if segment.records >= self.segment_max_records:
            self._seal_segment(segment)

    def counts(self) -> Dict[str, int]:
        return dict(sorted(self._counts.items()))

    # -- sealing -----------------------------------------------------------

    def seal(self, partial: Optional[str] = None) -> dict:
        """Seal every open segment and write the final manifest.

        ``partial`` marks a store cut short by graceful degradation
        (e.g. ``"disk_full"``); the manifest records it so consumers can
        tell a complete study from a flushed prefix.  Returns the
        manifest document.  Best-effort under a full disk: a segment
        whose footer cannot be written stays an unsealed tail (the
        reader recovers it); the manifest write itself is atomic.
        """
        for segment in list(self._open.values()):
            try:
                self._seal_segment(segment)
            except OSError:
                if partial is None:
                    raise
                # Degraded flush: leave the segment as a recoverable
                # tail rather than losing the records that did land.
                self._drop_open(segment)
        manifest = self._manifest_document(sealed=True, partial=partial)
        atomic_write_json(
            os.path.join(self.directory, STORE_MANIFEST_FILENAME),
            manifest, fsync=True, faults=self.faults,
        )
        self._finished = True
        return manifest

    def close(self) -> None:
        """Drop the open handles without sealing (crash simulation and
        error paths); flushed bytes stay on disk for recovery."""
        for segment in list(self._open.values()):
            self._drop_open(segment)
        self._finished = True

    # -- internals ---------------------------------------------------------

    def _new_segment(self, record_type: str) -> _OpenSegment:
        seq = self._next_seq.get(record_type, 0)
        path = os.path.join(self.segments_dir,
                            segment_name(record_type, seq))
        log = RecordLog(path, faults=self.faults, events=self.telemetry.events)
        segment = _OpenSegment(record_type, log)
        self._open[record_type] = segment
        self._next_seq[record_type] = seq + 1
        return segment

    def _drop_open(self, segment: _OpenSegment) -> None:
        segment.log.close()
        self._open.pop(segment.record_type, None)

    def _seal_segment(self, segment: _OpenSegment) -> None:
        """Footer + fsync + manifest update: the segment becomes part of
        the store's durable, checksummed prefix."""
        payload_bytes = segment.log.size
        segment.log.append({FOOTER_KEY: {
            "records": segment.records,
            "sha256": segment.hasher.hexdigest(),
        }}, data=False)
        try:
            segment.log.sync()
        except OSError as exc:
            raise DiskWriteError(
                f"segment fsync failed: {exc}"
            ) from exc
        self._drop_open(segment)
        self._sealed.append({
            "name": segment.name,
            "record_type": segment.record_type,
            "records": segment.records,
            "bytes": payload_bytes,
            "sha256": segment.hasher.hexdigest(),
        })
        self._m_segments.inc()
        self.telemetry.events.emit(
            "store.segment_sealed", level="info",
            segment=segment.name, records=segment.records,
        )
        atomic_write_json(
            os.path.join(self.directory, STORE_MANIFEST_FILENAME),
            self._manifest_document(sealed=False),
            fsync=True, faults=self.faults,
        )

    def _manifest_document(self, sealed: bool,
                           partial: Optional[str] = None) -> dict:
        document = {
            "schema": STORE_SCHEMA,
            "sealed": sealed,
            "segment_max_records": self.segment_max_records,
            "counts": self.counts(),
            "segments": list(self._sealed),
        }
        if partial:
            document["partial"] = partial
        return document


# -- reading -----------------------------------------------------------------


class _SegmentView:
    """Read-side description of one on-disk segment."""

    __slots__ = ("name", "path", "record_type", "seq", "sealed_entry")

    def __init__(self, name: str, path: str, record_type: str, seq: int,
                 sealed_entry: Optional[dict]) -> None:
        self.name = name
        self.path = path
        self.record_type = record_type
        self.seq = seq
        #: The manifest entry when the segment is claimed sealed.
        self.sealed_entry = sealed_entry


class StoreReader:
    """Streaming, self-verifying reads over a store directory.

    Corruption handling is *containment*, not failure: a broken sealed
    segment or torn tail line is quarantined/recovered and counted, and
    iteration continues with everything else.  :meth:`verify` is the
    strict audit (``repro data verify``) that reports every problem.
    """

    def __init__(self, directory: str,
                 quarantine=None,
                 telemetry: Optional[Telemetry] = None,
                 faults=None) -> None:
        self.directory = directory
        self.segments_dir = os.path.join(directory, SEGMENTS_DIRNAME)
        self.quarantine = quarantine
        self.telemetry = telemetry or NULL_TELEMETRY
        self.faults = faults
        self._m_recovered = self.telemetry.metrics.counter(
            "store_recovered_tail_total",
            "torn tail segments recovered on load",
        )
        self._m_quarantined = self.telemetry.metrics.counter(
            "store_quarantined_segments_total",
            "corrupt segments quarantined on load",
        )
        #: Loader tallies (also exposed via metrics/events).
        self.recovered_tails = 0
        self.quarantined_segments = 0
        self.recovered_lines_dropped = 0
        #: Problems already accounted, keyed ``(segment, kind[, line])``
        #: — re-scans (repeated iter_records() or counts() passes) must
        #: not re-quarantine the same corruption or re-inflate the metrics.
        self._noted_problems: set = set()
        self.manifest = self._load_manifest()

    @classmethod
    def open(cls, directory: str, quarantine=None,
             telemetry: Optional[Telemetry] = None,
             faults=None) -> "StoreReader":
        if not os.path.isdir(directory):
            raise StoreError(f"store directory {directory} does not exist")
        segments_dir = os.path.join(directory, SEGMENTS_DIRNAME)
        manifest_path = os.path.join(directory, STORE_MANIFEST_FILENAME)
        if not os.path.isdir(segments_dir) and \
                not os.path.exists(manifest_path):
            raise StoreError(
                f"{directory} is not a segmented store "
                f"(no {STORE_MANIFEST_FILENAME}, no {SEGMENTS_DIRNAME}/)"
            )
        return cls(directory, quarantine=quarantine, telemetry=telemetry,
                   faults=faults)

    # -- manifest ----------------------------------------------------------

    def _load_manifest(self) -> Optional[dict]:
        path = os.path.join(self.directory, STORE_MANIFEST_FILENAME)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(
                f"unreadable store manifest {path}: {exc}"
            ) from None
        if artifact_schema(document) != STORE_SCHEMA:
            raise StoreError(
                f"{path}: schema id {artifact_schema(document)!r} does "
                f"not match expected {STORE_SCHEMA!r}"
            )
        return document

    @property
    def partial(self) -> Optional[str]:
        """The manifest's degradation marker (e.g. ``"disk_full"``)."""
        if self.manifest is None:
            return None
        return self.manifest.get("partial")

    # -- segment discovery -------------------------------------------------

    def _segments(self, record_type: Optional[str] = None) -> List[_SegmentView]:
        """Every on-disk segment, ordered ``(record_type, seq)``."""
        sealed_by_name: Dict[str, dict] = {}
        if self.manifest is not None:
            sealed_by_name = {
                entry["name"]: entry
                for entry in self.manifest.get("segments", [])
            }
        views: List[_SegmentView] = []
        if os.path.isdir(self.segments_dir):
            for name in sorted(os.listdir(self.segments_dir)):
                parsed = _parse_segment_name(name)
                if parsed is None:
                    continue
                rtype, seq = parsed
                if record_type is not None and rtype != record_type:
                    continue
                views.append(_SegmentView(
                    name, os.path.join(self.segments_dir, name),
                    rtype, seq, sealed_by_name.get(name),
                ))
        views.sort(key=lambda v: (v.record_type, v.seq))
        return views

    def record_types(self) -> List[str]:
        return sorted({view.record_type for view in self._segments()})

    # -- streaming reads ---------------------------------------------------

    def iter_records(self, record_type: str) -> Iterator[dict]:
        """Yield record payload dicts in append order, one at a time.

        Memory high-water mark is one segment's bytes: sealed segments
        are checksum-verified *before* any of their records are yielded,
        so a caller never consumes data a later byte would invalidate.
        """
        for view in self._segments(record_type):
            yield from self._iter_segment(view)

    def iter_all(self) -> Iterator[Tuple[str, dict]]:
        """Yield ``(record_type, payload)`` across the whole store."""
        for view in self._segments():
            for payload in self._iter_segment(view):
                yield view.record_type, payload

    def count(self, record_type: str) -> int:
        counted = 0
        for _ in self.iter_records(record_type):
            counted += 1
        return counted

    def counts(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for record_type, _ in self.iter_all():
            totals[record_type] = totals.get(record_type, 0) + 1
        return dict(sorted(totals.items()))

    # -- segment decoding --------------------------------------------------

    def _read_segment_bytes(self, view: _SegmentView) -> bytes:
        with open(view.path, "rb") as handle:
            payload = handle.read()
        if self.faults is not None:
            payload = self.faults.filter_read(view.path, payload)
        return payload

    def _iter_segment(self, view: _SegmentView) -> Iterator[dict]:
        payload = self._read_segment_bytes(view)
        if view.sealed_entry is not None:
            problem = _sealed_segment_problem(payload, view.sealed_entry)
            if problem is not None:
                self._quarantine_segment(view, problem)
                return
            lines, _torn = split_lines(payload)
            for line in lines[:-1]:  # last line = footer
                yield json.loads(line)
            return
        # Unsealed tail (or a sealed-but-unclaimed segment after a crash
        # between footer and manifest): scan line by line, recovering.
        yield from self._iter_tail(view, payload)

    def _iter_tail(self, view: _SegmentView, payload: bytes) -> Iterator[dict]:
        lines, torn = split_lines(payload)
        for index, raw in enumerate(lines):
            if not raw:
                continue
            try:
                parsed = json.loads(raw)
            except json.JSONDecodeError as exc:
                self._quarantine_line(view, raw, str(exc), index)
                continue
            if isinstance(parsed, dict) and FOOTER_KEY in parsed:
                # A footer seals the segment: everything before it was
                # verified implicitly by arriving intact, and nothing
                # legitimately appends past it.  Quarantine any trailing
                # bytes instead of serving them as data.
                for extra_index, extra in enumerate(
                        lines[index + 1:] + [torn], index + 1):
                    if extra:
                        self._quarantine_line(
                            view, extra, "record after sealed footer",
                            extra_index,
                        )
                return
            yield parsed
        if torn:
            # Truncated final line: the classic SIGKILL artifact.
            self._recover_tail(view, torn)

    # -- recovery bookkeeping ----------------------------------------------

    def _recover_tail(self, view: _SegmentView, raw: bytes) -> None:
        if not self._note_problem((view.name, "tail")):
            return
        self.recovered_tails += 1
        self.recovered_lines_dropped += 1
        self._m_recovered.inc()
        self.telemetry.events.emit(
            "store.recovered_tail", level="warning",
            segment=view.name, dropped_bytes=len(raw),
        )

    def _quarantine_segment(self, view: _SegmentView, problem: str) -> None:
        if not self._note_problem((view.name, "segment")):
            return
        self.quarantined_segments += 1
        self._m_quarantined.inc()
        self.telemetry.events.emit(
            "store.segment_quarantined", level="error",
            segment=view.name, detail=problem,
        )
        if self.quarantine is not None:
            self.quarantine.quarantine(
                view.record_type, RULE_SEGMENT_CORRUPT, problem,
                raw=view.name, source=SOURCE_STORE_LOAD,
            )

    def _quarantine_line(self, view: _SegmentView, raw: bytes,
                         reason: str, index: int) -> None:
        if not self._note_problem((view.name, "line", index)):
            return
        self.recovered_lines_dropped += 1
        self.telemetry.events.emit(
            "store.line_quarantined", level="error",
            segment=view.name, detail=reason,
        )
        if self.quarantine is not None:
            self.quarantine.quarantine(
                view.record_type, RULE_LINE_CORRUPT, reason,
                raw=raw.decode("utf-8", "replace")[:500],
                source=SOURCE_STORE_LOAD,
            )

    def _note_problem(self, key: tuple) -> bool:
        """True the first time ``key`` is seen; later passes over the
        same corruption are silent (already counted, already
        dead-lettered)."""
        if key in self._noted_problems:
            return False
        self._noted_problems.add(key)
        return True

    # -- verification ------------------------------------------------------

    def verify(self) -> List[str]:
        """Audit the whole store; returns one line per problem.

        Checks: every manifest segment exists, matches its recorded
        byte size, checksum, and record count; unclaimed segments decode
        (a recovered torn tail is reported as a note-level problem only
        when strict callers want it — here it is *not* a problem, it is
        the design); counts add up.
        """
        problems: List[str] = []
        claimed = set()
        manifest_segments = []
        if self.manifest is not None:
            manifest_segments = self.manifest.get("segments", [])
        for entry in manifest_segments:
            name = entry.get("name", "?")
            claimed.add(name)
            path = os.path.join(self.segments_dir, name)
            if not os.path.exists(path):
                problems.append(f"{name}: listed in manifest but missing")
                continue
            view = _SegmentView(name, path, entry.get("record_type", "?"),
                                -1, entry)
            payload = self._read_segment_bytes(view)
            problem = _sealed_segment_problem(payload, entry)
            if problem is not None:
                problems.append(f"{name}: {problem}")
        for view in self._segments():
            if view.name in claimed:
                continue
            payload = self._read_segment_bytes(view)
            problems.extend(
                f"{view.name}: {issue}"
                for issue in _tail_segment_problems(payload)
            )
        return problems


def _sealed_segment_problem(payload: bytes, entry: dict) -> Optional[str]:
    """Why a sealed segment's bytes do not match its manifest claim
    (None when clean)."""
    lines, torn = split_lines(payload)
    if torn:
        return "sealed segment does not end in a newline"
    if not lines:
        return "sealed segment is empty"
    try:
        footer_line = json.loads(lines[-1])
    except json.JSONDecodeError:
        return "sealed segment footer is undecodable"
    footer = footer_line.get(FOOTER_KEY) \
        if isinstance(footer_line, dict) else None
    if not isinstance(footer, dict):
        return "sealed segment has no footer line"
    body = memoryview(payload)[:len(payload) - len(lines[-1]) - 1]
    digest = hashlib.sha256(body).hexdigest()
    records = len(lines) - 1
    if footer.get("records") != records:
        return (f"footer claims {footer.get('records')} records, "
                f"segment holds {records}")
    if footer.get("sha256") != digest:
        return "footer checksum does not match segment bytes"
    if entry.get("records") != records:
        return (f"manifest claims {entry.get('records')} records, "
                f"segment holds {records}")
    if entry.get("sha256") != digest:
        return "manifest checksum does not match segment bytes"
    return None


def _tail_segment_problems(payload: bytes) -> List[str]:
    """Structural problems in an unclaimed (tail) segment.  A truncated
    final line is recoverable-by-design and therefore not a problem; an
    undecodable complete line is, and so is any data past a footer
    (nothing legitimately appends to a sealed segment)."""
    problems: List[str] = []
    lines, _torn = split_lines(payload)  # a torn tail is recovered, fine
    footer_seen = False
    for raw in lines:
        if not raw:
            continue
        if footer_seen:
            problems.append("data after sealed footer in tail segment")
            break
        try:
            parsed = json.loads(raw)
        except json.JSONDecodeError:
            problems.append("undecodable line in tail segment")
            break
        if isinstance(parsed, dict) and FOOTER_KEY in parsed:
            footer_seen = True
    return problems


__all__ = [
    "DEFAULT_SEGMENT_RECORDS",
    "FOOTER_KEY",
    "RULE_LINE_CORRUPT",
    "RULE_SEGMENT_CORRUPT",
    "SEGMENTS_DIRNAME",
    "SOURCE_STORE_LOAD",
    "STORE_MANIFEST_FILENAME",
    "StoreError",
    "StoreReader",
    "StoreWriter",
    "existing_store_artifact",
    "segment_name",
]
