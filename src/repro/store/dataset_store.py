"""Bridge between the segmented store and
:class:`~repro.core.dataset.MeasurementDataset`.

:func:`save_dataset` streams a dataset into a store directory one
record at a time — never holding serialized output in RAM — and
degrades gracefully when the disk fills: whatever records fit are
flushed and sealed, the manifest carries ``partial: "disk_full"``, and
the report says exactly how far the save got.  :func:`load_dataset`
rebuilds a dataset through the tolerant
:func:`~repro.core.dataset.record_from_dict` path, so schema-drifted or
corrupt records quarantine instead of crashing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

from repro.core.dataset import (
    MeasurementDataset,
    _RECORD_TYPES,
    record_from_dict,
    record_to_dict,
)
from repro.faults.disk import DiskFullError
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.store.segments import (
    DEFAULT_SEGMENT_RECORDS,
    SOURCE_STORE_LOAD,
    StoreReader,
    StoreWriter,
)

#: Quarantine rule for a stored payload that no longer matches the
#: record dataclass shape.
RULE_RECORD_SHAPE = "store_record_shape_error"


@dataclass
class StoreSaveReport:
    """What one :func:`save_dataset` actually persisted."""

    directory: str
    #: record_type -> records durably flushed.
    counts: Dict[str, int] = field(default_factory=dict)
    #: Degradation marker (``"disk_full"``) when the save was cut short.
    partial: Optional[str] = None
    #: record_type -> records the dataset held but the disk refused.
    dropped: Dict[str, int] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.partial is None


def _iter_dataset(dataset: MeasurementDataset) -> Iterator[Tuple[str, dict]]:
    for name in _RECORD_TYPES:
        for record in getattr(dataset, name):
            yield name, record_to_dict(record)


def save_dataset(dataset: MeasurementDataset, directory: str,
                 segment_max_records: int = DEFAULT_SEGMENT_RECORDS,
                 faults=None,
                 telemetry: Optional[Telemetry] = None) -> StoreSaveReport:
    """Stream ``dataset`` into a segmented store at ``directory``.

    A full disk (injected or real ENOSPC) does not raise: the records
    that fit are sealed, the manifest is marked ``partial: "disk_full"``
    (metadata writes are exempt from the byte budget, the way real
    filesystems reserve blocks), and the report's ``dropped`` tallies
    what was lost.  Non-degradable failures (torn write twice, fsync
    EIO) propagate as :class:`~repro.faults.disk.DiskWriteError`.
    """
    telemetry = telemetry or NULL_TELEMETRY
    writer = StoreWriter(
        directory, segment_max_records=segment_max_records,
        faults=faults, telemetry=telemetry,
    )
    report = StoreSaveReport(directory=directory)
    stream = _iter_dataset(dataset)
    try:
        for name, payload in stream:
            writer.append(name, payload)
    except DiskFullError as exc:
        report.partial = "disk_full"
        report.dropped[name] = report.dropped.get(name, 0) + 1
        for leftover_name, _ in stream:
            report.dropped[leftover_name] = \
                report.dropped.get(leftover_name, 0) + 1
        telemetry.events.emit(
            "store.disk_full", level="error",
            detail=str(exc), flushed=writer.counts(),
            dropped=dict(sorted(report.dropped.items())),
        )
        try:
            writer.seal(partial="disk_full")
        except OSError as seal_exc:
            # The full disk can refuse even the manifest write (the
            # probabilistic ENOSPC rate hits metadata too).  Degradation
            # still holds: flushed segments remain recoverable tails for
            # the reader, and the report already says the save was cut
            # short — so swallow, never re-raise past the contract.
            writer.close()
            telemetry.events.emit(
                "store.seal_failed", level="error",
                detail=str(seal_exc), flushed=writer.counts(),
            )
    else:
        writer.seal()
    report.counts = writer.counts()
    return report


def load_dataset(directory: str, quarantine=None,
                 telemetry: Optional[Telemetry] = None,
                 faults=None) -> MeasurementDataset:
    """Rebuild a :class:`MeasurementDataset` from a store directory.

    Unknown record types and unknown fields in the store are ignored
    (forward compatibility); payloads that fail dataclass construction
    are quarantined under ``store_record_shape_error`` and skipped.
    Torn tails and corrupt segments are handled inside
    :class:`StoreReader`.  A directory holding no store raises
    :class:`~repro.store.segments.StoreError`.
    """
    reader = StoreReader.open(
        directory, quarantine=quarantine, telemetry=telemetry,
        faults=faults,
    )
    dataset = MeasurementDataset()
    for name, record_type in _RECORD_TYPES.items():
        records = getattr(dataset, name)
        for payload in reader.iter_records(name):
            try:
                records.append(record_from_dict(record_type, payload))
            except TypeError as exc:
                if quarantine is not None:
                    quarantine.quarantine(
                        name, RULE_RECORD_SHAPE, str(exc),
                        record=payload if isinstance(payload, dict) else None,
                        source=SOURCE_STORE_LOAD,
                    )
    return dataset


__all__ = [
    "RULE_RECORD_SHAPE",
    "StoreSaveReport",
    "load_dataset",
    "save_dataset",
]
