"""Loading a telemetry directory back into memory, defensively.

A directory written by ``--telemetry-out`` is read by
:func:`~repro.obs.summary.trace_document` (the document ``repro trace``,
``repro diff`` and ``repro health`` render) and by registry ingest, both
through :class:`RunDir`.  Any of its files can be missing (older runs
predate the scorecard), empty, or truncated (a run killed mid-export).
:class:`RunDir` loads whatever is present and raises
:class:`TelemetryDirError` — whose message is a single printable line —
when the directory is unusable, so every CLI entry point can ``except
TelemetryDirError`` and exit with code 2.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import repro.obs.schemas as schemas
from repro.obs.events import Event, EventLog
from repro.obs.manifest import MANIFEST_FILENAME
from repro.obs.prof import PROFILE_FILENAME
from repro.obs.quality import SCORECARD_FILENAME
from repro.obs.telemetry import (
    EVENTS_FILENAME,
    METRICS_FILENAME,
    TRACE_FILENAME,
)
from repro.obs.trace import SpanTracer, stage_summary

#: Any one of these makes a directory a telemetry directory.
TELEMETRY_FILES = (
    MANIFEST_FILENAME,
    METRICS_FILENAME,
    TRACE_FILENAME,
    EVENTS_FILENAME,
    SCORECARD_FILENAME,
    PROFILE_FILENAME,
)


class TelemetryDirError(RuntimeError):
    """A telemetry directory is missing, empty, or unreadable.

    The message is always a single line suitable for direct printing.
    """


@dataclass
class RunDir:
    """One telemetry directory, parsed."""

    path: str
    manifest: Optional[dict] = None
    metrics: Optional[dict] = None
    scorecard: Optional[dict] = None
    #: Parsed ``profile.json`` when the run was profiled (``--profile``).
    profile: Optional[dict] = None
    events: List[Event] = field(default_factory=list)
    stages: List[dict] = field(default_factory=list)

    # -- loading ----------------------------------------------------------

    @classmethod
    def load(cls, path: str) -> "RunDir":
        """Parse a telemetry directory; raise :class:`TelemetryDirError`
        (one-line message) when it cannot serve as one."""
        if not os.path.isdir(path):
            raise TelemetryDirError(f"no telemetry directory at {path}")
        present = [
            name for name in TELEMETRY_FILES
            if os.path.exists(os.path.join(path, name))
        ]
        if not present:
            raise TelemetryDirError(
                f"{path} contains no telemetry files "
                f"(expected one of: {', '.join(TELEMETRY_FILES)})"
            )
        run = cls(path=path)
        run.manifest = cls._load_json(path, MANIFEST_FILENAME)
        run.metrics = cls._load_json(path, METRICS_FILENAME)
        run.scorecard = cls._load_json(path, SCORECARD_FILENAME)
        run.profile = cls._load_json(path, PROFILE_FILENAME)
        if run.metrics is None and run.manifest:
            run.metrics = run.manifest.get("metrics")
        events_path = os.path.join(path, EVENTS_FILENAME)
        if os.path.exists(events_path):
            try:
                run.events = EventLog.load_jsonl(events_path)
            except (ValueError, KeyError) as exc:
                raise TelemetryDirError(
                    f"truncated or corrupt {EVENTS_FILENAME} in {path}: {exc}"
                ) from None
        if run.manifest and run.manifest.get("stages"):
            run.stages = run.manifest["stages"]
        else:
            trace_path = os.path.join(path, TRACE_FILENAME)
            if os.path.exists(trace_path):
                try:
                    run.stages = stage_summary(SpanTracer.load_jsonl(trace_path))
                except (ValueError, KeyError) as exc:
                    raise TelemetryDirError(
                        f"truncated or corrupt {TRACE_FILENAME} in {path}: {exc}"
                    ) from None
        return run

    @staticmethod
    def _load_json(path: str, name: str) -> Optional[dict]:
        file_path = os.path.join(path, name)
        if not os.path.exists(file_path):
            return None
        try:
            with open(file_path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (ValueError, OSError) as exc:
            raise TelemetryDirError(
                f"truncated or corrupt {name} in {path}: {exc}"
            ) from None

    # -- views ------------------------------------------------------------

    def scalar_metrics(self) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
        """Every counter/gauge series as ``(name, labels) -> value``,
        with labels as a sorted tuple of (key, value) pairs."""
        values: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
        for metric in (self.metrics or {}).get("metrics", []):
            if metric.get("kind") not in ("counter", "gauge"):
                continue
            for series in metric.get("series", []):
                labels = tuple(sorted(
                    (str(k), str(v))
                    for k, v in (series.get("labels") or {}).items()
                ))
                values[(metric["name"], labels)] = float(series.get("value", 0.0))
        return values

    def histogram_series(self, name: str) -> List[dict]:
        """The exported series dicts of one histogram metric."""
        for metric in (self.metrics or {}).get("metrics", []):
            if metric.get("name") == name and metric.get("kind") == "histogram":
                return list(metric.get("series", []))
        return []

    def event_kind_counts(self, min_level: str = "debug") -> Dict[str, int]:
        """Event counts by kind, filtered to ``min_level`` and above.

        Only ``events.jsonl`` records levels.  Without it, the unfiltered
        count falls back to the manifest's per-kind totals, and a
        filtered count is empty."""
        order = ("debug", "info", "warning", "error")
        floor = order.index(min_level) if min_level in order else 0
        counts: Dict[str, int] = {}
        for event in self.events:
            level = event.level if event.level in order else "warning"
            if order.index(level) >= floor:
                counts[event.kind] = counts.get(event.kind, 0) + 1
        if not floor and not self.events and self.manifest:
            counts = dict(self.manifest.get("events") or {})
        return dict(sorted(counts.items()))

    def watchdog_summary(self) -> Optional[dict]:
        if self.manifest:
            return self.manifest.get("watchdog")
        return None

    def config(self) -> dict:
        """The run's StudyConfig dict (empty when no manifest)."""
        return dict((self.manifest or {}).get("config") or {})

    def config_hash(self) -> str:
        """The manifest's recorded config hash; recomputed from the
        config dict for manifests that predate the field."""
        recorded = (self.manifest or {}).get("config_hash")
        if isinstance(recorded, str) and recorded:
            return recorded
        return schemas.config_hash(self.config())

    def content_digest(self) -> str:
        """A short digest over the raw bytes of every telemetry artifact
        present in the directory.

        Same files → same digest, so re-ingesting an unchanged directory
        is recognized; two same-seed twin runs still differ (their
        manifests record distinct wall-clock stage timings), so both
        land in the registry as separate runs.
        """
        digest = hashlib.sha256()
        for name in TELEMETRY_FILES:
            file_path = os.path.join(self.path, name)
            if not os.path.exists(file_path):
                continue
            digest.update(name.encode("utf-8") + b"\x00")
            with open(file_path, "rb") as handle:
                for chunk in iter(lambda: handle.read(1 << 16), b""):
                    digest.update(chunk)
            digest.update(b"\x00")
        return digest.hexdigest()[:16]


__all__ = ["RunDir", "TELEMETRY_FILES", "TelemetryDirError"]
