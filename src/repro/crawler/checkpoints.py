"""Crawl checkpointing: persist and resume an iteration crawl.

The paper's crawl spanned five months; a real deployment has to survive
restarts without re-counting listings it has already seen.  The
checkpoint captures the :class:`~repro.crawler.crawler.IterationCrawl`
tracker — every listing record with its first/last-seen bookkeeping,
plus the per-iteration series — as a JSON file.

Saves are atomic (write-then-rename), so a checkpoint on disk is either
a complete snapshot or absent.  A checkpoint that is nonetheless
unreadable — disk corruption, a partial copy, someone's stray editor —
must not wedge the crawl: :meth:`CrawlCheckpoint.load_or_empty`
quarantines the broken file to ``<path>.corrupt``, emits a
``checkpoint.corrupt`` event, and starts fresh.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.dataset import ListingRecord, SellerRecord, record_to_dict
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.util.fileio import atomic_write_json


@dataclass
class CrawlCheckpoint:
    """Serializable snapshot of an iteration crawl in progress."""

    completed_iterations: int = 0
    active_per_iteration: List[int] = field(default_factory=list)
    cumulative_per_iteration: List[int] = field(default_factory=list)
    #: Simulated clock at save time; a resumed run fast-forwards its
    #: fresh clock here so sim timestamps match the uninterrupted run.
    sim_seconds: float = 0.0
    #: normalized offer URL -> listing record (with seen bookkeeping).
    tracker: Dict[str, ListingRecord] = field(default_factory=dict)
    #: normalized seller URL -> seller record; without this, sellers whose
    #: listings delist before a resume would be lost.
    sellers: Dict[str, SellerRecord] = field(default_factory=dict)

    # -- persistence -------------------------------------------------------

    def save(self, path: str, faults=None) -> None:
        payload = {
            "completed_iterations": self.completed_iterations,
            "active_per_iteration": self.active_per_iteration,
            "cumulative_per_iteration": self.cumulative_per_iteration,
            "sim_seconds": self.sim_seconds,
            "tracker": {
                key: record_to_dict(record)
                for key, record in self.tracker.items()
            },
            "sellers": {
                key: record_to_dict(record)
                for key, record in self.sellers.items()
            },
        }
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        # Write-then-rename so a crash never leaves a torn checkpoint.
        # ``faults`` (a DiskFaultInjector) routes the write through the
        # storage chaos layer; an injected failure leaves the previous
        # checkpoint intact, exactly like the real one would.
        atomic_write_json(path, payload, indent=None, sort_keys=False,
                          faults=faults)

    @classmethod
    def load(cls, path: str) -> "CrawlCheckpoint":
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        return cls(
            completed_iterations=payload["completed_iterations"],
            active_per_iteration=list(payload["active_per_iteration"]),
            cumulative_per_iteration=list(payload["cumulative_per_iteration"]),
            sim_seconds=float(payload.get("sim_seconds", 0.0)),
            # Deliberately strict (no unknown-key dropping): a checkpoint
            # carrying fields this version does not know is an incompatible
            # schema, and load_or_empty quarantines it rather than resuming
            # from a half-understood crawl state.
            tracker={
                key: ListingRecord(**record)
                for key, record in payload["tracker"].items()
            },
            sellers={
                key: SellerRecord(**record)
                for key, record in payload.get("sellers", {}).items()
            },
        )

    @classmethod
    def load_or_empty(
        cls, path: str, telemetry: Optional[Telemetry] = None,
    ) -> "CrawlCheckpoint":
        """Load ``path``, tolerating a corrupt or incompatible file.

        An unreadable checkpoint is moved aside to ``<path>.corrupt``
        (preserved for post-mortems) and an empty checkpoint is
        returned, so the crawl restarts from iteration 0 instead of
        crashing on startup — losing progress beats losing the run.
        """
        if not os.path.exists(path):
            return cls()
        telemetry = telemetry or NULL_TELEMETRY
        try:
            return cls.load(path)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            quarantine = path + ".corrupt"
            os.replace(path, quarantine)
            telemetry.events.emit(
                "checkpoint.corrupt",
                level="error",
                path=path,
                quarantine=quarantine,
                detail=f"{type(exc).__name__}: {exc}",
            )
            return cls()


__all__ = ["CrawlCheckpoint"]
