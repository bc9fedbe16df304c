"""The monitor's durable schedule ledger: append-only JSONL, crash-safe.

The ledger is the daemon's only memory of what it has done.  Every cycle
walks ``planned → running → ingested | failed | skipped``; each
transition is one :class:`~repro.util.jsonl.RecordLog` line, flushed and
fsynced before the daemon acts on it, so a SIGKILL at any instant leaves
a prefix of the true history plus at most one torn tail — the bytes
after the last newline.  Loading drops the torn tail (the write it
belonged to never returned, so the daemon never acted on it) and the
next append truncates it from the file before writing, so the ledger
stays readable however often the daemon is killed mid-append.

A cycle whose last recorded status is ``running`` is a **torn cycle**:
the daemon died mid-cycle.  Restart recovery quarantines its partial
run directory and either re-plans it (``catch_up="run"``) or records it
``skipped`` (``catch_up="skip"``).

Determinism: no entry carries a wall-clock timestamp — cycles are
stamped with their scheduled *simulated* time and the registry sequence
numbers they produced — so two same-seed daemons (one SIGKILL-ed and
restarted, one uninterrupted) write byte-identical ledgers modulo the
torn cycle's extra ``running``/``quarantined`` lines.  The first line is
a header carrying :data:`~repro.obs.schemas.MONITOR_LEDGER_SCHEMA` and
the monitor's config hash; reopening a state dir with a different
deterministic config refuses rather than silently mixing histories.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.monitor.errors import MonitorError
from repro.obs.schemas import MONITOR_LEDGER_SCHEMA
from repro.util.jsonl import RecordLog, load_line, split_lines

LEDGER_FILENAME = "ledger.jsonl"

#: Cycle statuses that end a cycle's lifecycle (no more attempts).
TERMINAL_STATUSES = frozenset({"ingested", "failed", "skipped"})
#: Every status a ledger entry may carry.
KNOWN_STATUSES = frozenset({
    "planned", "running", "ingested", "failed", "skipped",
    "quarantined", "retired",
})


@dataclass
class CycleState:
    """One cycle's current position in the ledger's state machine."""

    cycle: int
    #: Last lifecycle status (planned/running/ingested/failed/skipped).
    status: str = "planned"
    #: Running-entry attempts seen for the current plan epoch.
    attempts: int = 0
    #: The terminal entry's interesting fields (run_id, reason, ...).
    detail: dict = field(default_factory=dict)
    #: The cycle's run dir was garbage-collected by retention.
    retired: bool = False
    #: A previous partial attempt was quarantined on restart.
    quarantined: bool = False

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATUSES

    @property
    def torn(self) -> bool:
        """Died mid-cycle: a ``running`` entry with no terminal one."""
        return self.status == "running"


class ScheduleLedger:
    """Append-only JSONL ledger in the monitor state directory.

    Use :meth:`open` — it creates the file with its header line on
    first use and validates the header (schema id, config hash) on
    every reopen.  :meth:`append` writes one canonical-JSON line and
    fsyncs before returning: once ``append`` returns, the entry
    survives SIGKILL.
    """

    def __init__(self, path: str, header: dict,
                 entries: Optional[List[dict]] = None):
        self.path = path
        self.header = header
        self.entries: List[dict] = list(entries or [])

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def open(cls, path: str, config_hash: str) -> "ScheduleLedger":
        """Open (creating if absent) the ledger at ``path``.

        ``config_hash`` digests the monitor's deterministic config; a
        ledger recorded under a different hash belongs to a different
        measurement series and refuses to continue.
        """
        if os.path.exists(path):
            ledger = cls.read(path)
            if ledger.header.get("config_hash") != config_hash:
                raise MonitorError(
                    f"{path}: ledger belongs to monitor config "
                    f"{ledger.header.get('config_hash')!r}, not "
                    f"{config_hash!r} — refusing to mix measurement "
                    "series in one state dir"
                )
            return ledger
        header = {"schema": MONITOR_LEDGER_SCHEMA,
                  "config_hash": config_hash}
        ledger = cls(path, header)
        ledger._append_line(header)
        return ledger

    @classmethod
    def read(cls, path: str) -> "ScheduleLedger":
        """Open an existing ledger for inspection (``monitor status``)
        without asserting a config hash; never creates or modifies it.

        A torn tail is the signature of a crash mid-append: the entry
        was never durable, so it is dropped.  A corrupt complete line
        means the file was edited or the disk lied — that is a
        :class:`MonitorError`, not something to silently skip.
        """
        if not os.path.exists(path):
            raise MonitorError(f"no monitor ledger at {path}")
        with open(path, "rb") as handle:
            lines, _torn = split_lines(handle.read())
        records: List[dict] = []
        for number, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                records.append(load_line(line))
            except ValueError as exc:
                raise MonitorError(
                    f"{path}: corrupt ledger line {number}: {exc}"
                ) from None
        if not records:
            raise MonitorError(f"{path}: ledger has no header line")
        header = records[0]
        if header.get("schema") != MONITOR_LEDGER_SCHEMA:
            raise MonitorError(
                f"{path}: ledger schema {header.get('schema')!r} does "
                f"not match expected {MONITOR_LEDGER_SCHEMA!r}"
            )
        return cls(path, header, records[1:])

    # -- writing -----------------------------------------------------------

    def append(self, record: dict) -> dict:
        """Durably append one cycle entry and return it."""
        status = record.get("status")
        if status not in KNOWN_STATUSES:
            raise MonitorError(f"unknown ledger status {status!r}")
        self._append_line(record)
        self.entries.append(record)
        return record

    def _append_line(self, record: dict) -> None:
        with RecordLog(self.path) as log:
            log.append(record)
            log.sync()

    # -- views -------------------------------------------------------------

    def cycle_states(self) -> Dict[int, CycleState]:
        """Replay the entries into one :class:`CycleState` per cycle."""
        states: Dict[int, CycleState] = {}
        for record in self.entries:
            cycle = record.get("cycle")
            if not isinstance(cycle, int):
                continue
            state = states.setdefault(cycle, CycleState(cycle=cycle))
            status = record.get("status")
            if status == "retired":
                state.retired = True
            elif status == "quarantined":
                state.quarantined = True
                state.status = "quarantined"
                state.attempts = 0
            elif status == "planned":
                state.status = "planned"
                state.attempts = 0
            elif status == "running":
                state.status = "running"
                state.attempts += 1
            elif status in TERMINAL_STATUSES:
                state.status = status
                state.detail = {
                    key: value for key, value in record.items()
                    if key not in ("cycle", "status")
                }
        return states

    def torn_cycles(self) -> List[int]:
        """Cycles whose last status is ``running`` — died mid-cycle."""
        return sorted(
            state.cycle for state in self.cycle_states().values()
            if state.torn
        )

    def terminal_cycles(self, status: Optional[str] = None) -> List[int]:
        """Cycles with a terminal status (optionally one specific)."""
        return sorted(
            state.cycle for state in self.cycle_states().values()
            if state.terminal and (status is None or state.status == status)
        )

    def live_ingested_cycles(self) -> List[int]:
        """Ingested cycles whose run dirs retention has not collected."""
        return sorted(
            state.cycle for state in self.cycle_states().values()
            if state.status == "ingested" and not state.retired
        )


__all__ = [
    "CycleState",
    "KNOWN_STATUSES",
    "LEDGER_FILENAME",
    "ScheduleLedger",
    "TERMINAL_STATUSES",
]
