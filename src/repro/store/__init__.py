"""Crash-safe segmented record store — the pipeline's durable data plane.

* :mod:`repro.store.segments` — the append-only segmented JSONL store:
  fixed-size segments with a per-segment SHA-256 + record-count footer,
  a sealed, atomically-replaced ``store.json`` manifest
  (``repro.store/v1``), torn-tail recovery, corrupt-segment quarantine,
  and streaming record-at-a-time reads;
* :mod:`repro.store.dataset_store` — the bridge between the store and
  :class:`~repro.core.dataset.MeasurementDataset`: stream a dataset in
  or load one back.

It is the dataset's only on-disk layout: ``repro run --out DIR`` and
``repro replay --out DIR`` write a store into ``DIR``, and every reader
(``report``, ``figures``, ``data``, ``serve build``) reads it.

The write path degrades gracefully under storage chaos
(:mod:`repro.faults.disk`): ENOSPC flushes what fits and seals it, torn
appends are truncated back and retried, and a SIGKILL at any byte
reloads exactly the flushed prefix.
"""

from repro.store.dataset_store import (
    StoreSaveReport,
    load_dataset,
    save_dataset,
)
from repro.store.segments import (
    DEFAULT_SEGMENT_RECORDS,
    STORE_MANIFEST_FILENAME,
    StoreError,
    StoreReader,
    StoreWriter,
    existing_store_artifact,
)

__all__ = [
    "DEFAULT_SEGMENT_RECORDS",
    "STORE_MANIFEST_FILENAME",
    "StoreError",
    "StoreReader",
    "StoreSaveReport",
    "StoreWriter",
    "existing_store_artifact",
    "load_dataset",
    "save_dataset",
]
