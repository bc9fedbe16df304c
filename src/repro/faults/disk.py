"""Seeded fault injection for the storage plane.

The network path has had chaos since PR 3; every byte the pipeline
*persists* — store segments, checkpoints, manifests — was still written
on the assumption that disks are perfect.  They are not: partitions
fill mid-run, power dies mid-write, fsync lies, and cold data rots.
:class:`DiskFaultInjector` injects exactly those four failure modes at
the write/fsync/read seams the durable writers expose:

* **ENOSPC** — a write raises :class:`DiskFullError`, either with a
  per-write probability or deterministically once a byte budget is
  spent (``disk_enospc_after_bytes``, the CI disk-full drill);
* **torn writes** — only a prefix of the payload lands, then the write
  errors, like power loss mid-transfer;
* **fsync failure** — the flush to stable storage raises EIO;
* **bit flips on read** — one bit of a read payload comes back flipped,
  silently, the way cold media corrupts; only checksums catch it.

Every decision comes from an :class:`~repro.util.rng.RngTree` stream
derived from ``(seed, op, path)`` — the path keyed by *basename* so two
same-seed runs in different scratch directories inject byte-identical
fault sequences.  Every injected fault is observable: a
``fault.disk_<kind>`` event plus ``disk_faults_injected_total{op,kind}``.
The disk errors are defined in :mod:`repro.util.jsonl`, beside the
:class:`~repro.util.jsonl.RecordLog` that raises them.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from repro.faults.profiles import FaultProfile
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.util.jsonl import DiskFullError, DiskWriteError, is_disk_full
from repro.util.rng import RngTree


def _path_key(path: str) -> str:
    """The RNG-stream key of a path: its basename, so runs in different
    scratch directories draw identical fault sequences."""
    return os.path.basename(path.rstrip(os.sep)) or path


class DiskFaultInjector:
    """Injects seeded storage faults at explicit write/fsync/read seams.

    Durable writers (:class:`repro.util.jsonl.RecordLog`,
    :func:`repro.util.fileio.atomic_write`) route their file operations
    through an optional injector; ``None`` (the default everywhere)
    means the plain filesystem.  The injector is deliberately *not* a
    global — callers own their wiring, the same way telemetry is
    threaded.
    """

    def __init__(self, profile: FaultProfile, seed: int,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.profile = profile
        self._seed = seed
        self._streams: Dict[str, RngTree] = {}
        self.telemetry = telemetry or NULL_TELEMETRY
        self._m_faults = self.telemetry.metrics.counter(
            "disk_faults_injected_total",
            "injected storage faults, by operation and kind",
            labels=("op", "kind"),
        )
        #: Injected-fault tally by kind (tests and reporting).
        self.counts: Dict[str, int] = {}
        #: Record-payload bytes successfully written (the ENOSPC budget).
        self.data_bytes_written = 0

    @property
    def active(self) -> bool:
        return self.profile.disk_active

    # -- seams -------------------------------------------------------------

    def write(self, handle, path: str, text: str,
              data: bool = False) -> None:
        """Write ``text`` to ``handle``, possibly failing like a disk.

        ``data=True`` marks record-payload writes, the only ones charged
        against ``disk_enospc_after_bytes`` — metadata (footers,
        manifests) models the reserved blocks real filesystems keep.
        May write a prefix and raise (torn write): the caller owns
        truncate-and-retry recovery (:class:`~repro.util.jsonl.RecordLog`).
        """
        if not self.active:
            handle.write(text)
            return
        rates = self.profile.rates
        nbytes = len(text.encode("utf-8"))
        budget = rates.disk_enospc_after_bytes
        if data and budget is not None and \
                self.data_bytes_written + nbytes > budget:
            self._note("write", "enospc", path)
            raise DiskFullError(
                f"injected disk full: {self.data_bytes_written + nbytes} "
                f"> {budget} byte budget"
            )
        stream = self._stream("write", path)
        roll = stream.random()
        if roll < rates.disk_enospc:
            self._note("write", "enospc", path)
            raise DiskFullError("injected disk full")
        if roll < rates.disk_enospc + rates.disk_torn_write:
            cut = max(1, int(len(text) * stream.uniform(0.1, 0.9)))
            handle.write(text[:cut])
            self._note("write", "torn_write", path)
            raise DiskWriteError(
                f"injected torn write: {cut}/{len(text)} chars landed"
            )
        handle.write(text)
        if data:
            self.data_bytes_written += nbytes

    def fsync(self, path: str, fileno: int) -> None:
        """``os.fsync``, possibly raising EIO like a lying disk."""
        if self.active:
            stream = self._stream("fsync", path)
            if stream.random() < self.profile.rates.disk_fsync_fail:
                self._note("fsync", "fsync_fail", path)
                raise DiskWriteError("injected fsync failure")
        os.fsync(fileno)

    def filter_read(self, path: str, payload: bytes) -> bytes:
        """Pass a read payload through, possibly flipping one bit."""
        if not self.active or not payload:
            return payload
        stream = self._stream("read", path)
        if stream.random() < self.profile.rates.disk_bit_flip:
            position = stream.randint(0, len(payload) - 1)
            bit = 1 << stream.randint(0, 7)
            self._note("read", "bit_flip", path)
            return (payload[:position]
                    + bytes([payload[position] ^ bit])
                    + payload[position + 1:])
        return payload

    # -- internals ---------------------------------------------------------

    def _stream(self, op: str, path: str) -> RngTree:
        key = f"{op}:{_path_key(path)}"
        stream = self._streams.get(key)
        if stream is None:
            stream = RngTree(self._seed, name="disk").child(op).child(
                _path_key(path)
            )
            self._streams[key] = stream
        return stream

    def _note(self, op: str, kind: str, path: str) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self._m_faults.inc(op=op, kind=kind)
        self.telemetry.events.emit(
            f"fault.disk_{kind}", level="info", op=op,
            path=_path_key(path),
        )


__all__ = [
    "DiskFaultInjector",
    "DiskFullError",
    "DiskWriteError",
    "is_disk_full",
]
