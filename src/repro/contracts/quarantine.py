"""The dead-letter store for records that fail their contract.

A production data plane never silently drops input: a record the
contract layer cannot repair or degrade is *quarantined* — appended to a
JSONL dead-letter file under the run directory with a machine-readable
``(record_type, rule, reason)`` triple, counted in
``contracts_quarantined_total{record_type,rule}``, and emitted as a
``contract.quarantine`` event.  The same store receives what the
segmented-store loader could not read back (a corrupt segment, an
undecodable line, a payload of the wrong shape; ``source:
"store_load"``) and, under ``--strict-contracts``, turns any quarantine
into a :class:`ContractViolationError` so CI can prove a clean pipeline
stays clean.  The file is replaced atomically
(:func:`~repro.util.jsonl.write_records`).
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

from repro.util.jsonl import read_records, write_records

QUARANTINE_FILENAME = "quarantine.jsonl"

#: ``source`` of a record the contract layer rejected (the store loader
#: uses :data:`repro.store.segments.SOURCE_STORE_LOAD`).
SOURCE_VALIDATION = "validation"


class ContractViolationError(RuntimeError):
    """A record violated its contract while ``--strict-contracts`` is on.

    The message is a single printable line naming the record type, the
    rule, and the reason.
    """


@dataclass
class QuarantinedRecord:
    """One dead-lettered record with its machine-readable reason."""

    record_type: str
    rule: str
    reason: str
    source: str = SOURCE_VALIDATION
    #: The record's field dict, when it existed as a record at all.
    record: Optional[dict] = None
    #: The raw line, when the payload never decoded into a record.
    raw: Optional[str] = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "QuarantinedRecord":
        return cls(
            record_type=data["record_type"],
            rule=data["rule"],
            reason=data.get("reason", ""),
            source=data.get("source", SOURCE_VALIDATION),
            record=data.get("record"),
            raw=data.get("raw"),
        )


class QuarantineStore:
    """Append-only collector of quarantined records.

    Holds entries in memory during the run (deterministic order) and
    writes ``quarantine.jsonl`` into the run and/or telemetry directory
    at export time.  With ``strict=True`` the first quarantine raises
    :class:`ContractViolationError` instead.
    """

    def __init__(self, telemetry=None, strict: bool = False) -> None:
        self.strict = strict
        self.entries: List[QuarantinedRecord] = []
        self._telemetry = telemetry
        self._counter = None
        if telemetry is not None:
            self._counter = telemetry.metrics.counter(
                "contracts_quarantined_total",
                "records dead-lettered by the contract layer",
                labels=("record_type", "rule"),
            )

    @property
    def total(self) -> int:
        return len(self.entries)

    def quarantine(
        self,
        record_type: str,
        rule: str,
        reason: str,
        record: Optional[dict] = None,
        raw: Optional[str] = None,
        source: str = SOURCE_VALIDATION,
    ) -> QuarantinedRecord:
        """Dead-letter one record; raises in strict mode."""
        entry = QuarantinedRecord(
            record_type=record_type, rule=rule, reason=reason,
            source=source, record=record, raw=raw,
        )
        if self._counter is not None:
            self._counter.inc(record_type=record_type, rule=rule)
        if self._telemetry is not None:
            self._telemetry.events.emit(
                "contract.quarantine",
                level="error",
                record_type=record_type,
                rule=rule,
                reason=reason,
                source=source,
            )
        if self.strict:
            raise ContractViolationError(
                f"contract violation ({record_type}/{rule}): {reason}"
            )
        self.entries.append(entry)
        return entry

    def counts_by_rule(self) -> Dict[str, int]:
        """``"record_type/rule" -> count``, sorted by key."""
        counts: Dict[str, int] = {}
        for entry in self.entries:
            key = f"{entry.record_type}/{entry.rule}"
            counts[key] = counts.get(key, 0) + 1
        return dict(sorted(counts.items()))

    def summary(self) -> dict:
        """The manifest section for this store."""
        return {"total": self.total, "by_rule": self.counts_by_rule()}

    # -- persistence -------------------------------------------------------

    def write_jsonl(self, directory: str) -> str:
        """Write ``quarantine.jsonl`` atomically, even when empty, so
        tooling can rely on its presence in a completed run dir."""
        return write_records(
            os.path.join(directory, QUARANTINE_FILENAME),
            (entry.to_dict() for entry in self.entries),
        )

    @staticmethod
    def load_jsonl(path: str) -> List[QuarantinedRecord]:
        return [QuarantinedRecord.from_dict(data)
                for data in read_records(path)]


__all__ = [
    "ContractViolationError",
    "QUARANTINE_FILENAME",
    "QuarantineStore",
    "QuarantinedRecord",
    "SOURCE_VALIDATION",
]
