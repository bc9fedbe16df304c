"""Structured crawl-event log.

Every anomaly the pipeline used to swallow into a bare ``errors += 1``
— HTTP failures, robots blocks, extraction failures, registration
failures — becomes an :class:`Event` with full context (URL,
marketplace, iteration, exception class).  Events carry the simulated
timestamp, never wall time, so the stream is byte-identical across two
runs with the same seed.

The log exports to JSONL (one event per line, through
:func:`~repro.util.jsonl.write_records`) and loads back, so tests and
the ``repro trace`` subcommand can round-trip it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.util.jsonl import read_records, write_records
from repro.util.simtime import SimClock

LEVELS = ("debug", "info", "warning", "error")


@dataclass
class Event:
    """One structured pipeline event."""

    kind: str
    sim_time: float = 0.0
    level: str = "warning"
    fields: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Event":
        return cls(
            kind=data["kind"],
            sim_time=data.get("sim_time", 0.0),
            level=data.get("level", "warning"),
            fields=dict(data.get("fields", {})),
        )


class EventLog:
    """Append-only, deterministic event collector."""

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self._clock = clock
        self.events: List[Event] = []

    def set_clock(self, clock: SimClock) -> None:
        self._clock = clock

    def emit(self, kind: str, level: str = "warning", **fields: object) -> Event:
        if level not in LEVELS:
            raise ValueError(f"unknown event level: {level!r}")
        event = Event(
            kind=kind,
            sim_time=self._clock.now() if self._clock is not None else 0.0,
            level=level,
            fields=fields,
        )
        self.events.append(event)
        return event

    def __len__(self) -> int:
        return len(self.events)

    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return dict(sorted(counts.items()))

    def export_jsonl(self, path: str) -> None:
        write_records(path, (event.to_dict() for event in self.events))

    @staticmethod
    def load_jsonl(path: str) -> List[Event]:
        return [Event.from_dict(data) for data in read_records(path)]


class NullEventLog:
    """Event log stand-in for disabled telemetry."""

    events: List[Event] = []

    def set_clock(self, clock) -> None:
        pass

    def emit(self, kind: str, level: str = "warning", **fields: object) -> None:
        return None

    def __len__(self) -> int:
        return 0

    def counts_by_kind(self) -> Dict[str, int]:
        return {}

    def export_jsonl(self, path: str) -> None:
        pass


__all__ = ["Event", "EventLog", "LEVELS", "NullEventLog"]
