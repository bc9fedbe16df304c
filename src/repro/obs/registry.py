"""The cross-run registry: an append-only SQLite store of run telemetry.

Every run's artifacts (manifest, scorecard, profile, watchdog summary,
archive stats) die with their telemetry directory; the registry is the
system's memory across runs.  ``RunRegistry.ingest`` folds one completed
telemetry directory — via the same machine-readable
:func:`~repro.obs.summary.trace_document` that backs ``repro trace
--json`` — into one row per run plus a flat per-metric table, keyed by
``(run_id, seed, config_hash, ingested_at)``.

Design points:

* **Append-only.** Rows are only ever inserted; nothing updates or
  deletes.  Re-ingesting an unchanged directory is a no-op keyed by
  ``(run_id, config_hash)`` — ``run_id`` digests the artifact bytes, so
  the same directory always maps to the same id while two same-seed twin
  runs (whose manifests record different wall-clock timings) still land
  as two rows.
* **Schema-checked.** Every artifact present in the directory must carry
  its registered schema id (:mod:`repro.obs.schemas`); an unknown or
  missing id refuses ingestion with :class:`RegistryError` rather than
  silently storing unversioned data.
* **Deterministic values.** Everything stored in the ``metrics`` table
  derives from the run's own artifacts, so trend baselines and anomaly
  rules downstream (:mod:`repro.obs.trends`, :mod:`repro.obs.alerts`)
  are reproducible given the same registry contents; the wall-clock
  ``ingested_at`` stamp is recorded for humans but never used in any
  rule.
"""

from __future__ import annotations

import datetime as _datetime
import json
import os
import sqlite3
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.obs.rundir import RunDir, TelemetryDirError
from repro.obs.schemas import (
    ARTIFACT_SCHEMAS,
    REGISTRY_SCHEMA,
    SchemaError,
    check_artifact,
    config_hash as compute_config_hash,
)
from repro.obs.summary import trace_document

REGISTRY_FILENAME = "runs.sqlite"

_TABLES = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id TEXT NOT NULL,
    seed INTEGER,
    config_hash TEXT NOT NULL,
    ingested_at TEXT NOT NULL,
    path TEXT,
    scale REAL,
    iterations INTEGER,
    chaos TEXT,
    git TEXT,
    simulated_seconds REAL,
    scorecard_passed INTEGER,
    document TEXT NOT NULL,
    UNIQUE (run_id, config_hash)
);
CREATE TABLE IF NOT EXISTS metrics (
    seq INTEGER NOT NULL REFERENCES runs (seq),
    run_id TEXT NOT NULL,
    name TEXT NOT NULL,
    value REAL NOT NULL,
    source TEXT NOT NULL,
    UNIQUE (seq, name)
);
CREATE INDEX IF NOT EXISTS metrics_by_name ON metrics (name, seq);
"""


class RegistryError(RuntimeError):
    """The registry file or an ingested artifact is unusable.

    The message is always a single printable line (CLI exit code 2).
    """


@dataclass(frozen=True)
class RunRow:
    """One registered run (the scalar columns of the ``runs`` table)."""

    seq: int
    run_id: str
    seed: Optional[int]
    config_hash: str
    ingested_at: str
    path: str
    scale: Optional[float]
    iterations: Optional[int]
    chaos: Optional[str]
    git: Optional[str]
    simulated_seconds: Optional[float]
    scorecard_passed: Optional[bool]

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "run_id": self.run_id,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "ingested_at": self.ingested_at,
            "path": self.path,
            "scale": self.scale,
            "iterations": self.iterations,
            "chaos": self.chaos,
            "git": self.git,
            "simulated_seconds": self.simulated_seconds,
            "scorecard_passed": self.scorecard_passed,
        }


@dataclass(frozen=True)
class IngestResult:
    """What one :meth:`RunRegistry.ingest` call did."""

    run_id: str
    config_hash: str
    inserted: bool
    seq: Optional[int]
    n_metrics: int = 0


def _iso_utc(timestamp: Optional[float] = None) -> str:
    moment = _datetime.datetime.fromtimestamp(
        time.time() if timestamp is None else timestamp,
        _datetime.timezone.utc,
    )
    return moment.isoformat(timespec="seconds")


# ---------------------------------------------------------------------------
# metric extraction (shared by ingest and tests)
# ---------------------------------------------------------------------------

def metrics_from_document(document: dict) -> Dict[str, Tuple[float, str]]:
    """Flatten a trace document into ``name -> (value, source)`` rows.

    Only deterministic-per-run values (plus per-stage wall clock, which
    trend/alert consumers treat as machine-noise-prone and gate behind
    explicit opt-in) make it into the table.
    """
    rows: Dict[str, Tuple[float, str]] = {}

    def put(name: str, value, source: str) -> None:
        if isinstance(value, bool):
            value = 1.0 if value else 0.0
        if isinstance(value, (int, float)) and value == value:
            rows[name] = (float(value), source)

    run = document.get("run") or {}
    put("run.simulated_seconds", run.get("simulated_seconds"), "manifest")
    for record_type, count in (run.get("dataset") or {}).items():
        put(f"dataset.{record_type}", count, "manifest")

    for stage in document.get("stages") or []:
        name = stage.get("name")
        if not name:
            continue
        put(f"stage_sim_seconds.{name}", stage.get("sim_seconds"), "trace")
        put(f"stage_wall_seconds.{name}", stage.get("wall_seconds"), "trace")
    put("trace.stages_total", len(document.get("stages") or []), "trace")

    scorecard = document.get("scorecard")
    if scorecard is not None:
        put("fidelity.passed", scorecard.get("passed"), "scorecard")
        put("fidelity.n_failed", scorecard.get("n_failed"), "scorecard")
        for entry in scorecard.get("entries") or []:
            if entry.get("name"):
                put(f"fidelity.{entry['name']}", entry.get("value"),
                    "scorecard")

    watchdog = document.get("watchdog")
    if watchdog is not None:
        put("watchdog.findings_total", watchdog.get("findings_total"),
            "watchdog")
        for severity, count in (watchdog.get("counts") or {}).items():
            put(f"watchdog.{severity}", count, "watchdog")

    contracts = document.get("contracts")
    if contracts:
        validation = contracts.get("validation") or {}
        put("contracts.coverage", validation.get("coverage"), "contracts")
        put("contracts.repaired", validation.get("repaired"), "contracts")
        put("contracts.degraded", validation.get("degraded"), "contracts")
        put("contracts.quarantined", validation.get("quarantined"),
            "contracts")
        quarantine = contracts.get("quarantine") or {}
        put("contracts.quarantine_total", quarantine.get("total"),
            "contracts")

    crawl = document.get("crawl") or {}
    put("crawl.pages_total", crawl.get("pages_total"), "crawl")
    put("crawl.errors_total", crawl.get("errors_total"), "crawl")
    put("crawl.error_rate", crawl.get("error_rate"), "crawl")

    archive = document.get("archive")
    if archive:
        put("archive.exchanges_total", archive.get("exchanges_total"),
            "archive")
        put("archive.blobs_total", archive.get("blobs_total"), "archive")
        put("archive.bytes_total", archive.get("bytes_total"), "archive")
        put("archive.dedup_ratio", archive.get("dedup_ratio"), "archive")

    profile = document.get("profile")
    if profile:
        totals = profile.get("totals") or {}
        put("profile.wall_seconds", totals.get("wall_seconds"), "profile")
        put("profile.tracemalloc_peak_bytes",
            totals.get("tracemalloc_peak_bytes"), "profile")
        put("profile.rss_max_kb", totals.get("rss_max_kb"), "profile")

    put("stage_failures.total", len(document.get("stage_failures") or []),
        "manifest")
    events = document.get("events") or {}
    put("events.total", sum(events.values()), "events")
    return rows


class RunRegistry:
    """Append-only SQLite registry of ingested runs at a user-chosen
    path.  Use as a context manager or call :meth:`close`."""

    def __init__(self, path: str, _create: bool = True):
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        if _create:
            os.makedirs(directory, exist_ok=True)
        elif not os.path.exists(path):
            raise RegistryError(f"no run registry at {path}")
        try:
            self._conn = sqlite3.connect(path)
            self._conn.executescript(_TABLES)
            self._conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                ("schema", REGISTRY_SCHEMA),
            )
            self._conn.commit()
        except sqlite3.Error as exc:
            raise RegistryError(
                f"cannot open run registry {path}: {exc}"
            ) from None
        recorded = self._meta("schema")
        if recorded != REGISTRY_SCHEMA:
            raise RegistryError(
                f"{path}: registry schema {recorded!r} does not match "
                f"expected {REGISTRY_SCHEMA!r}"
            )

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def open(cls, path: str) -> "RunRegistry":
        """Open (creating if absent) the registry at ``path``."""
        return cls(path)

    @classmethod
    def open_existing(cls, path: str) -> "RunRegistry":
        """Open the registry at ``path``; error when it does not exist
        (read-side CLI commands should not conjure empty registries)."""
        return cls(path, _create=False)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "RunRegistry":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def _meta(self, key: str) -> Optional[str]:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return row[0] if row else None

    # -- ingestion ---------------------------------------------------------

    def ingest(self, source: Union[str, RunDir],
               run_id: Optional[str] = None,
               ingested_at: Optional[float] = None) -> IngestResult:
        """Fold one telemetry directory into the registry.

        Validates the schema id of every artifact present, derives
        ``run_id`` from the artifact bytes (unless given) and
        ``config_hash`` from the manifest, and inserts the run row plus
        its flattened metrics.  A ``(run_id, config_hash)`` pair already
        present makes the call a no-op (``inserted=False``).
        """
        try:
            run = source if isinstance(source, RunDir) else RunDir.load(source)
        except TelemetryDirError as exc:
            raise RegistryError(str(exc)) from None
        self._check_artifacts(run)
        document = trace_document(run)
        resolved_run_id = run_id or f"run-{run.content_digest()}"
        resolved_config_hash = run.config_hash()
        return self.ingest_document(
            document,
            run_id=resolved_run_id,
            config_hash=resolved_config_hash,
            path=run.path,
            ingested_at=ingested_at,
        )

    def ingest_document(self, document: dict, *, run_id: str,
                        config_hash: Optional[str] = None,
                        path: str = "",
                        ingested_at: Optional[float] = None) -> IngestResult:
        """Insert one pre-built trace document (the non-filesystem half
        of :meth:`ingest`; also the hook tests and tools use to register
        synthetic runs)."""
        run_info = document.get("run") or {}
        config = run_info.get("config") or {}
        resolved_hash = (
            config_hash
            or run_info.get("config_hash")
            or compute_config_hash(config)
        )
        metrics = metrics_from_document(document)
        scorecard = document.get("scorecard")
        row = (
            run_id,
            run_info.get("seed"),
            resolved_hash,
            _iso_utc(ingested_at),
            path or document.get("path") or "",
            config.get("scale"),
            config.get("iterations"),
            config.get("chaos_profile"),
            run_info.get("git"),
            run_info.get("simulated_seconds"),
            None if scorecard is None else int(bool(scorecard.get("passed"))),
            json.dumps(document, sort_keys=True, separators=(",", ":")),
        )
        try:
            with self._conn:
                cursor = self._conn.execute(
                    "INSERT INTO runs (run_id, seed, config_hash,"
                    " ingested_at, path, scale, iterations, chaos, git,"
                    " simulated_seconds, scorecard_passed, document)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                    row,
                )
                seq = cursor.lastrowid
                self._conn.executemany(
                    "INSERT INTO metrics (seq, run_id, name, value, source)"
                    " VALUES (?, ?, ?, ?, ?)",
                    [
                        (seq, run_id, name, value, source)
                        for name, (value, source) in sorted(metrics.items())
                    ],
                )
        except sqlite3.IntegrityError:
            return IngestResult(
                run_id=run_id, config_hash=resolved_hash,
                inserted=False, seq=self._seq_of(run_id, resolved_hash),
            )
        except sqlite3.Error as exc:
            raise RegistryError(
                f"cannot ingest into {self.path}: {exc}"
            ) from None
        return IngestResult(
            run_id=run_id, config_hash=resolved_hash,
            inserted=True, seq=seq, n_metrics=len(metrics),
        )

    def _check_artifacts(self, run: RunDir) -> None:
        """Schema-check every JSON artifact present in the run dir."""
        for name in ARTIFACT_SCHEMAS:
            file_path = os.path.join(run.path, name)
            if not os.path.exists(file_path):
                continue
            document = {
                "manifest.json": run.manifest,
                "metrics.json": run.metrics,
                "scorecard.json": run.scorecard,
                "profile.json": run.profile,
            }.get(name)
            if document is None:
                continue
            try:
                check_artifact(name, document,
                               source=os.path.join(run.path, name))
            except SchemaError as exc:
                raise RegistryError(str(exc)) from None

    def _seq_of(self, run_id: str, config_hash_value: str) -> Optional[int]:
        row = self._conn.execute(
            "SELECT seq FROM runs WHERE run_id = ? AND config_hash = ?",
            (run_id, config_hash_value),
        ).fetchone()
        return row[0] if row else None

    # -- queries -----------------------------------------------------------

    def runs(self) -> List[RunRow]:
        """Registered runs in ingestion order."""
        return [
            RunRow(
                seq=seq, run_id=run_id, seed=seed,
                config_hash=config_hash_value, ingested_at=ingested_at,
                path=path, scale=scale, iterations=iterations, chaos=chaos,
                git=git, simulated_seconds=simulated_seconds,
                scorecard_passed=(
                    None if scorecard_passed is None else bool(scorecard_passed)
                ),
            )
            for (seq, run_id, seed, config_hash_value, ingested_at, path,
                 scale, iterations, chaos, git, simulated_seconds,
                 scorecard_passed) in self._conn.execute(
                "SELECT seq, run_id, seed, config_hash, ingested_at, path,"
                " scale, iterations, chaos, git, simulated_seconds,"
                " scorecard_passed FROM runs ORDER BY seq"
            )
        ]

    def run(self, run_id: str) -> Optional[RunRow]:
        """The most recently ingested row with this run id."""
        matches = [row for row in self.runs() if row.run_id == run_id]
        return matches[-1] if matches else None

    def document(self, run_id: str) -> Optional[dict]:
        """The stored trace document of one run."""
        row = self._conn.execute(
            "SELECT document FROM runs WHERE run_id = ?"
            " ORDER BY seq DESC LIMIT 1",
            (run_id,),
        ).fetchone()
        return json.loads(row[0]) if row else None

    def metric_names(self) -> List[str]:
        return [
            name for (name,) in self._conn.execute(
                "SELECT DISTINCT name FROM metrics ORDER BY name"
            )
        ]

    def series(self, name: str) -> List[Tuple[int, str, float]]:
        """One metric across runs as ``(seq, run_id, value)`` rows in
        ingestion order."""
        return [
            (seq, run_id, value)
            for (seq, run_id, value) in self._conn.execute(
                "SELECT seq, run_id, value FROM metrics WHERE name = ?"
                " ORDER BY seq",
                (name,),
            )
        ]

    def metrics_of(self, seq: int) -> Dict[str, Tuple[float, str]]:
        """Every metric row of one registered run."""
        return {
            name: (value, source)
            for (name, value, source) in self._conn.execute(
                "SELECT name, value, source FROM metrics WHERE seq = ?"
                " ORDER BY name",
                (seq,),
            )
        }


__all__ = [
    "IngestResult",
    "REGISTRY_FILENAME",
    "RegistryError",
    "RunRegistry",
    "RunRow",
    "metrics_from_document",
]
