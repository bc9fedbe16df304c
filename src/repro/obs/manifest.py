"""The run manifest: one JSON file that makes two runs diffable.

Written alongside a study's telemetry export, the manifest records
everything needed to compare or reproduce a run: the full
:class:`~repro.core.pipeline.StudyConfig`, the git revision of the code,
per-stage sim/wall durations, per-marketplace crawl counters (including
the structured error list), event counts by kind, and the complete
metric snapshot.

This module is deliberately duck-typed over the config/result objects so
it has no import edge back into :mod:`repro.core` (which itself imports
the telemetry facade).
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from typing import List, Optional

from repro.obs.quality import write_scorecard
from repro.obs.schemas import MANIFEST_SCHEMA, config_hash
from repro.util.fileio import atomic_write_json

MANIFEST_FILENAME = "manifest.json"


def git_describe() -> Optional[str]:
    """``git describe --always --dirty`` of the tree this package runs
    from, or None."""
    try:
        result = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if result.returncode != 0:
        return None
    return result.stdout.strip() or None


def _crawl_section(result) -> dict:
    reports = []
    errors_total = 0
    for report in getattr(result, "crawl_reports", []):
        errors_total += report.errors
        reports.append({
            "marketplace": report.marketplace,
            "pages_fetched": report.pages_fetched,
            "offers_found": report.offers_found,
            "offers_parsed": report.offers_parsed,
            "sellers_fetched": report.sellers_fetched,
            "errors": report.errors,
            "error_details": [
                {"url": e.url, "kind": e.kind, "detail": e.detail}
                for e in getattr(report, "error_details", [])
            ],
        })
    return {"reports": reports, "errors_total": errors_total}


def build_manifest(config, result, telemetry, command: Optional[List[str]] = None) -> dict:
    """Assemble the manifest dict for one completed study run.

    ``config``/``result`` are a StudyConfig/StudyResult (duck-typed);
    ``telemetry`` is the :class:`~repro.obs.telemetry.Telemetry` the run
    recorded into.
    """
    config_dict = (
        dataclasses.asdict(config)
        if dataclasses.is_dataclass(config) else dict(config)
    )
    watchdog = getattr(result, "watchdog", None)
    scorecard = getattr(result, "scorecard", None)
    contracts = getattr(result, "contracts", None)
    quarantine = getattr(result, "quarantine", None)
    contracts_section = None
    if contracts is not None or quarantine is not None:
        contracts_section = {
            "validation": contracts.summary() if contracts is not None else None,
            "quarantine": quarantine.summary() if quarantine is not None else None,
        }
    return {
        "schema": MANIFEST_SCHEMA,
        "command": list(command) if command is not None else None,
        "python": sys.version.split()[0],
        "git": git_describe(),
        "config": config_dict,
        "config_hash": config_hash(config_dict),
        "seed": config_dict.get("seed"),
        "simulated_seconds": getattr(result, "simulated_seconds", 0.0),
        "dataset": result.dataset.summary() if getattr(result, "dataset", None) else {},
        "stages": telemetry.tracer.stage_summary(),
        "crawl": _crawl_section(result),
        "watchdog": watchdog.summary() if watchdog is not None else None,
        "scorecard": (
            {
                "passed": scorecard.passed,
                "n_entries": len(scorecard.entries),
                "n_failed": len(scorecard.failures()),
            }
            if scorecard is not None else None
        ),
        "contracts": contracts_section,
        "archive": getattr(result, "archive", None),
        "stage_failures": [
            failure.to_dict()
            for failure in getattr(result, "stage_failures", [])
        ],
        "events": telemetry.events.counts_by_kind(),
        "metrics": telemetry.metrics.snapshot(),
        "profile": (
            telemetry.profiler.summary()
            if getattr(telemetry, "profiler", None) is not None
            and telemetry.profiler.enabled else None
        ),
    }


def write_manifest(directory: str, manifest: dict) -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, MANIFEST_FILENAME)
    # Atomic so a run killed mid-export leaves either no manifest or a
    # complete one — never a torn file `repro runs ingest` rejects.
    return atomic_write_json(path, manifest)


def write_telemetry_dir(directory: str, config, result, telemetry,
                        command: List[str]) -> str:
    """Write one run's telemetry dir: metrics/trace/events (plus
    ``profile.json``), ``scorecard.json`` and ``quarantine.jsonl`` when
    the run has them, and the manifest last.  Returns the manifest path.
    """
    telemetry.export(directory)
    if getattr(result, "scorecard", None) is not None:
        write_scorecard(directory, result.scorecard)
    if getattr(result, "quarantine", None) is not None:
        result.quarantine.write_jsonl(directory)
    manifest = build_manifest(config, result, telemetry, command=command)
    return write_manifest(directory, manifest)


__all__ = [
    "MANIFEST_FILENAME",
    "MANIFEST_SCHEMA",
    "build_manifest",
    "git_describe",
    "write_manifest",
    "write_telemetry_dir",
]
