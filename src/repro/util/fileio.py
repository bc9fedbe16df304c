"""Crash-safe file writes shared by every JSON artifact emitter.

A study killed mid-export must never leave a torn ``manifest.json`` or
``scorecard.json`` behind: the run registry refuses to ingest artifacts
it cannot parse, so a half-written file poisons the whole telemetry
directory.  :func:`atomic_write` gives every emitter the same guarantee
the crawl checkpoint has had since PR 3 — write to a temp file in the
same directory, then :func:`os.replace` over the target — so any file
on disk is either the complete previous version or the complete new
one, never a mixture.

``fsync=True`` additionally flushes the temp file to stable storage
before the rename, for writers (the monitor's schedule ledger state,
lock files) whose durability matters across power loss, not just
process death.

``faults`` (a :class:`repro.faults.disk.DiskFaultInjector`) routes the
write and fsync through the storage-plane chaos layer; an injected
failure behaves exactly like the real one — the temp file is removed
and the target is untouched, so a chaos run can never tear a file the
plain path would have written atomically.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from typing import Iterator, TextIO


@contextlib.contextmanager
def atomic_write(path: str, encoding: str = "utf-8",
                 fsync: bool = False, faults=None) -> Iterator[TextIO]:
    """Open a temp file for writing; atomically rename onto ``path`` on
    clean exit.  On any exception the temp file is removed and ``path``
    is left untouched.

    The temp file lives in the target's directory (``os.replace`` is
    only atomic within one filesystem) and carries the writer's pid so
    two processes racing on the same target cannot clobber each other's
    temp file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    temp_path = f"{path}.tmp.{os.getpid()}"
    handle = open(temp_path, "w", encoding=encoding)
    try:
        yield handle
        handle.flush()
        if fsync:
            if faults is not None:
                faults.fsync(path, handle.fileno())
            else:
                os.fsync(handle.fileno())
        handle.close()
        os.replace(temp_path, path)
    except BaseException:
        handle.close()
        with contextlib.suppress(OSError):
            os.remove(temp_path)
        raise


def _write(handle: TextIO, path: str, text: str, faults=None) -> None:
    if faults is not None:
        faults.write(handle, path, text)
    else:
        handle.write(text)


def atomic_write_json(path: str, payload, indent: int = 2,
                      sort_keys: bool = True,
                      trailing_newline: bool = False,
                      fsync: bool = False, faults=None) -> str:
    """Serialize ``payload`` as JSON into ``path`` atomically; returns
    ``path`` for the common ``print(f"wrote {...}")`` idiom."""
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys)
    if trailing_newline:
        text += "\n"
    with atomic_write(path, fsync=fsync, faults=faults) as handle:
        _write(handle, path, text, faults=faults)
    return path


def atomic_write_text(path: str, text: str, fsync: bool = False,
                      faults=None) -> str:
    """Write a complete text file atomically."""
    with atomic_write(path, fsync=fsync, faults=faults) as handle:
        _write(handle, path, text, faults=faults)
    return path


def file_sha256(path: str) -> str:
    """The SHA-256 hex digest of a file, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


__all__ = [
    "atomic_write",
    "atomic_write_json",
    "atomic_write_text",
    "file_sha256",
]

