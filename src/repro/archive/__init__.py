"""Crawl archive: WARC-style capture of every HTTP exchange, plus replay.

The paper's pipeline is collect-once, analyze-many — the authors
archived their Feb–Jun 2024 crawls and re-ran extraction and analysis as
their methods evolved.  This package gives the reproduction the same
decoupling:

- :mod:`repro.archive.blobstore` — content-addressed body storage
  (SHA-256 keyed, deduplicating, atomic writes).
- :mod:`repro.archive.records` — the two-role index schema: ``exchange``
  (as observed on the wire, pre-retry) and ``outcome`` (what each
  top-level request delivered — the replay script).
- :mod:`repro.archive.writer` — the capture sink the live
  :class:`~repro.web.client.HttpClient` writes into; seals the archive
  with a hash-chained manifest.
- :mod:`repro.archive.reader` — opens sealed archives; ``verify()``
  re-hashes everything (``repro archive verify``).
- :mod:`repro.archive.replay` — re-runs Module-2 extraction plus the
  full analysis suite offline, byte-identical to the live run
  (``repro replay``).
- :mod:`repro.archive.diff` — per-marketplace page churn between
  iterations (``repro archive diff``).
"""

from repro.archive.blobstore import BlobNotFound, BlobStore, body_sha256
from repro.archive.diff import ArchiveDiff, MarketplaceChurn, diff_iterations
from repro.archive.reader import ArchiveReader
from repro.archive.records import (
    ROLE_EXCHANGE,
    ROLE_OUTCOME,
    ArchiveError,
    ExchangeRecord,
)
from repro.archive.replay import (
    ReplayClient,
    ReplayClock,
    ReplayError,
    ReplayMismatch,
    run_replay,
    study_config_from,
)
from repro.archive.writer import (
    ARCHIVE_MANIFEST,
    ARCHIVE_SCHEMA,
    ArchiveWriter,
    POST_COLLECTION_PHASE,
)

__all__ = [
    "ARCHIVE_MANIFEST",
    "ARCHIVE_SCHEMA",
    "ArchiveDiff",
    "ArchiveError",
    "ArchiveReader",
    "ArchiveWriter",
    "BlobNotFound",
    "BlobStore",
    "ExchangeRecord",
    "MarketplaceChurn",
    "POST_COLLECTION_PHASE",
    "ROLE_EXCHANGE",
    "ROLE_OUTCOME",
    "ReplayClient",
    "ReplayClock",
    "ReplayError",
    "ReplayMismatch",
    "body_sha256",
    "diff_iterations",
    "run_replay",
    "study_config_from",
]
