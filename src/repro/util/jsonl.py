"""The one JSONL framing shared by every record stream.

Store segments, the monitor's schedule ledger, archive indexes, pack
sidecars, ``quarantine.jsonl``, ``events.jsonl`` and ``trace.jsonl`` are
all JSON objects, one per line, and only this module frames them.
:func:`dump_line` is the one encoding (sorted keys, compact separators,
one ``"\\n"``), so equal records are equal bytes.  :func:`split_lines`
is the one torn-tail rule: every append ends in its newline, so the
bytes after the last newline are a write that never finished and are
never served as a record.  Whole files are replaced atomically by
:func:`write_records` and read back strictly by :func:`read_records`;
append streams use :class:`RecordLog`.

The disk errors live here because :class:`RecordLog` raises them;
:mod:`repro.faults` re-exports them.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
from typing import Iterable, List, Tuple

from repro.util.fileio import atomic_write


class DiskFullError(OSError):
    """The disk has no room for this write (injected or real ENOSPC).

    An :class:`OSError` with ``errno == ENOSPC`` so callers that already
    catch real disk-full conditions handle the injected kind for free.
    """

    def __init__(self, detail: str = "no space left on device"):
        super().__init__(errno.ENOSPC, detail)


class DiskWriteError(OSError):
    """A write or fsync failed in a way retrying did not fix (torn
    write, fsync EIO).  Unlike :class:`DiskFullError` this is not
    gracefully degradable: the store cannot promise durability past it."""

    def __init__(self, detail: str = "I/O error"):
        super().__init__(errno.EIO, detail)


def is_disk_full(exc: BaseException) -> bool:
    """True for any disk-full condition, injected or from the OS."""
    return isinstance(exc, OSError) and exc.errno == errno.ENOSPC


def dump_line(record: dict) -> str:
    """One record as its stored line, newline included."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def split_lines(payload: bytes) -> Tuple[List[bytes], bytes]:
    """``(complete lines, torn tail)``: the lines lose their newline and
    keep blank ones; the torn tail is the bytes after the last newline."""
    lines = payload.split(b"\n")
    return lines, lines.pop()


def load_line(line: bytes) -> dict:
    """Decode one complete line; :class:`ValueError` unless it holds a
    JSON object."""
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError(f"line holds a JSON {type(record).__name__}, "
                         f"not an object")
    return record


def read_records(path: str) -> List[dict]:
    """Every record of an atomically written file, skipping blank lines;
    a torn tail or an undecodable line raises :class:`ValueError`."""
    with open(path, "rb") as handle:
        lines, torn = split_lines(handle.read())
    if torn:
        raise ValueError(f"{os.path.basename(path)} ends in a torn line "
                         f"({len(torn)} bytes after the last newline)")
    return [load_line(line) for line in lines if line.strip()]


def write_records(path: str, records: Iterable[dict]) -> str:
    """Replace ``path`` with one line per record, atomically: a record
    that fails to encode leaves the previous file untouched."""
    with atomic_write(path) as handle:
        for record in records:
            handle.write(dump_line(record))
    return path


class RecordLog:
    """An append-only JSONL file whose appends land whole or not at all.

    Opening an existing file truncates its torn tail, so no append
    lands on partial bytes.  ``faults`` (a
    :class:`~repro.faults.disk.DiskFaultInjector`) routes every write
    and fsync through the storage chaos layer; ``events`` (an event
    log) receives a ``log.write_retry`` warning per retried write.
    """

    def __init__(self, path: str, faults=None, events=None) -> None:
        self.path = path
        self.faults = faults
        self.events = events
        with open(path, "ab+") as handle:
            handle.seek(0)
            #: Bytes of complete lines: where the next append starts.
            self.size = handle.read().rfind(b"\n") + 1
        os.truncate(path, self.size)  # drop a torn tail
        self._handle = open(path, "a", encoding="utf-8")

    def __enter__(self) -> "RecordLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def append(self, record: dict, data: bool = True) -> bytes:
        """Write and flush one line; returns its encoded bytes.

        ``data=False`` marks metadata (footers), which the injector's
        ENOSPC byte budget does not charge.  A failed write is truncated
        back to the last complete line and retried once; a disk-full
        failure raises :class:`DiskFullError` at once, a second failure
        :class:`DiskWriteError`.
        """
        line = dump_line(record)
        for attempt in (1, 2):
            try:
                if self.faults is not None:
                    self.faults.write(self._handle, self.path, line,
                                      data=data)
                else:
                    self._handle.write(line)
                self._handle.flush()
                break
            except OSError as exc:
                self._truncate_back()
                if is_disk_full(exc):
                    raise exc if isinstance(exc, DiskFullError) \
                        else DiskFullError(str(exc))
                if attempt == 2:
                    raise DiskWriteError(
                        f"append to {os.path.basename(self.path)} failed "
                        f"twice: {exc}"
                    ) from exc
                if self.events is not None:
                    self.events.emit(
                        "log.write_retry", level="warning",
                        file=os.path.basename(self.path), detail=str(exc),
                    )
        encoded = line.encode("utf-8")
        self.size += len(encoded)
        return encoded

    def sync(self) -> None:
        """fsync every appended line to stable storage."""
        if self.faults is not None:
            self.faults.fsync(self.path, self._handle.fileno())
        else:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        # Every append was flushed, so closing loses nothing.
        with contextlib.suppress(OSError):
            self._handle.close()

    def _truncate_back(self) -> None:
        """Drop a failed write's partial bytes."""
        self.close()
        os.truncate(self.path, self.size)
        self._handle = open(self.path, "a", encoding="utf-8")


__all__ = [
    "DiskFullError",
    "DiskWriteError",
    "RecordLog",
    "dump_line",
    "is_disk_full",
    "load_line",
    "read_records",
    "split_lines",
    "write_records",
]
