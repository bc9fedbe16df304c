"""Continuous performance profiling: ``--profile`` / ``profile.json``.

A :class:`StageProfiler` keeps no clock of its own: it observes the
run's :class:`~repro.obs.trace.SpanTracer` (installed by the
:class:`~repro.obs.telemetry.Telemetry` it is passed to) and reads every
time off the spans.  A *phase* is every child of the run's root span —
the same spans the manifest lists as ``stages`` — plus every
``stage.<name>`` analysis-stage span at any depth.  Per phase it records:

* **wall time** and **sim time** — the phase span's own durations, so a
  phase has one wall time wherever it is reported; sim time is the
  deterministic twin of wall time, identical across same-seed runs;
* **item counts** (pages fetched, records processed) and the derived
  throughput (pages/s, records/s against wall time);
* **memory** via :mod:`tracemalloc`, traced while the root span is
  open: peak traced bytes inside the phase (child peaks propagate to
  parents), net allocated bytes, and the top-N allocation sites
  attributed to ``repro`` modules.

The tracer calls the profiler before a span's wall clock starts and
after it stops, so the tracemalloc snapshots are never charged to the
phase they measure.  Totals are the root span's durations.

The profile exports as a byte-stable ``profile.json``
(:data:`PROFILE_FILENAME`, schema :data:`PROFILE_SCHEMA`) next to the
other telemetry files.  Exactly as :mod:`repro.obs.trace` separates sim
from wall durations, the profile separates *deterministic* fields
(names, sim durations, counts, per-host request/byte tallies) from
*machine* fields (wall seconds, throughput rates, memory):
:func:`deterministic_view` strips the machine fields, and twin same-seed
runs must agree byte-for-byte on what remains — that is the determinism
gate for profiled runs.

Profiling is opt-in (the CLI's ``--profile``); when off, the tracer has
no observer and call sites hold the shared :data:`NULL_PROFILER`, whose
count hooks are empty methods, so the <5% telemetry-overhead budget is
unaffected.
"""

from __future__ import annotations

import json
import os
import tracemalloc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

try:  # POSIX only; absent on some platforms.
    import resource
except ImportError:  # pragma: no cover - non-POSIX fallback
    resource = None

from repro.obs.schemas import PROFILE_SCHEMA
from repro.obs.trace import SpanRecord
from repro.util.fileio import atomic_write_json

PROFILE_FILENAME = "profile.json"

#: Top-level and per-phase keys that vary run-to-run on the same seed
#: (wall clock, allocator state, host environment).  Everything else in
#: a profile must be byte-identical between same-seed twin runs.
MACHINE_KEYS = frozenset({"wall_seconds", "throughput", "memory", "env"})

#: Prefix marking a profiled analysis stage (``stage.<name>``).
STAGE_PREFIX = "stage."

#: Allocation sites kept per phase in a memory profile.
TOP_ALLOCATIONS = 5


def _round6(value: float) -> float:
    return round(float(value), 6)


@dataclass
class PhaseProfile:
    """One completed profiled phase (pipeline phase or analysis stage)."""

    name: str
    kind: str = "phase"  # "phase" | "stage"
    sim_start: float = 0.0
    sim_seconds: float = 0.0
    wall_seconds: float = 0.0
    counts: Dict[str, int] = field(default_factory=dict)
    mem_peak_bytes: int = 0
    mem_net_bytes: int = 0
    top_allocations: List[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        throughput = {}
        if self.wall_seconds > 0:
            for key, count in sorted(self.counts.items()):
                throughput[f"{key}_per_second"] = round(
                    count / self.wall_seconds, 3
                )
        return {
            "name": self.name,
            "kind": self.kind,
            "sim_start": _round6(self.sim_start),
            "sim_seconds": _round6(self.sim_seconds),
            "counts": dict(sorted(self.counts.items())),
            # -- machine fields (masked by deterministic_view) --
            "wall_seconds": _round6(self.wall_seconds),
            "throughput": throughput,
            "memory": {
                "peak_bytes": int(self.mem_peak_bytes),
                "net_bytes": int(self.mem_net_bytes),
                "top_allocations": list(self.top_allocations),
            },
        }


class _MemoryWindow:
    """The tracemalloc window of one open phase span."""

    __slots__ = ("span_id", "profile", "start_current", "snapshot",
                 "child_peak")

    def __init__(self, span_id: int, profile: PhaseProfile) -> None:
        self.span_id = span_id
        self.profile = profile
        self.start_current = 0
        self.snapshot = None
        self.child_peak = 0


def _repro_site(filename: str, lineno: int) -> Optional[str]:
    """Normalize a traceback filename to a stable ``repro/...:line`` site.

    Returns None for frames outside the repro package so allocation
    tables only attribute to our own modules, and stay comparable
    across checkouts/machines.
    """
    normalized = filename.replace(os.sep, "/")
    marker = "/repro/"
    index = normalized.rfind(marker)
    if index < 0:
        return None
    return f"repro/{normalized[index + len(marker):]}:{lineno}"


class StageProfiler:
    """Collects per-phase wall/sim/memory/throughput profiles from spans.

    The tracer drives it through :meth:`span_opened` and
    :meth:`span_closed`.  ``memory=False`` skips all :mod:`tracemalloc`
    work — used by the bench harness, whose timing rounds must not pay
    the (roughly 2x on allocation-heavy code) tracing overhead; a
    dedicated memory round records peaks separately.
    """

    def __init__(self, memory: bool = True,
                 stages_expected: Sequence[str] = ()) -> None:
        self.enabled = True
        self.memory = memory
        self.stages_expected: Tuple[str, ...] = tuple(stages_expected)
        self.phases: List[PhaseProfile] = []
        self.clients: List[dict] = []
        self._root: Optional[SpanRecord] = None
        self._windows: List[_MemoryWindow] = []
        self._started_tracing = False
        self._wall_total = 0.0
        self._sim_total = 0.0

    # -- tracer observer -------------------------------------------------

    def span_opened(self, record: SpanRecord, depth: int) -> None:
        """The first root span starts the run (and tracemalloc); a phase
        span opens a memory window."""
        if self._root is None and depth == 0:
            self._root = record
            if self.memory and not tracemalloc.is_tracing():
                tracemalloc.start()
                self._started_tracing = True
            return
        if record.name.startswith(STAGE_PREFIX):
            kind = "stage"
        elif self._root is not None and record.parent_id == self._root.span_id:
            kind = "phase"
        else:
            return
        window = _MemoryWindow(record.span_id, PhaseProfile(
            name=record.name, kind=kind, sim_start=record.sim_start,
        ))
        if self.memory and tracemalloc.is_tracing():
            window.start_current = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            window.snapshot = tracemalloc.take_snapshot()
        self._windows.append(window)

    def span_closed(self, record: SpanRecord) -> None:
        """The root span ends the run; a phase span closes its window."""
        if record is self._root:
            self._wall_total = record.wall_duration
            self._sim_total = record.sim_end
            self._windows.clear()
            if self._started_tracing:
                tracemalloc.stop()
                self._started_tracing = False
            return
        # Windows opened after this span and still open belong to
        # abandoned children (same defense as the tracer's stack).
        while self._windows and self._windows[-1].span_id > record.span_id:
            self._windows.pop()
        if not self._windows or self._windows[-1].span_id != record.span_id:
            return
        window = self._windows.pop()
        profile = window.profile
        profile.sim_seconds = record.sim_duration
        profile.wall_seconds = record.wall_duration
        if self.memory and tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            profile.mem_net_bytes = current - window.start_current
            profile.mem_peak_bytes = max(peak, window.child_peak)
            if window.snapshot is not None:
                profile.top_allocations = self._top_diff(window.snapshot)
            # Fresh peak window for whatever the parent does next; the
            # child's peak has already been folded into the parent below.
            tracemalloc.reset_peak()
        if self._windows:
            parent = self._windows[-1]
            parent.child_peak = max(parent.child_peak, profile.mem_peak_bytes)
        self.phases.append(profile)

    def _top_diff(self, before) -> List[dict]:
        after = tracemalloc.take_snapshot()
        stats = after.compare_to(before, "lineno")
        sites: List[dict] = []
        for stat in stats:
            frame = stat.traceback[0]
            site = _repro_site(frame.filename, frame.lineno)
            if site is None or stat.size_diff <= 0:
                continue
            sites.append({
                "site": site,
                "size_bytes": int(stat.size_diff),
                "count": int(stat.count_diff),
            })
        sites.sort(key=lambda s: (-s["size_bytes"], s["site"]))
        return sites[:TOP_ALLOCATIONS]

    # -- attribution -----------------------------------------------------

    def add_counts(self, name: str, **counts: int) -> None:
        """Attach item counts (pages, records, ...) to a recorded phase.

        Looks at completed phases (latest first), then the open stack,
        so call sites may add counts right after the ``with`` block.
        """
        target: Optional[PhaseProfile] = None
        for record in reversed(self.phases):
            if record.name == name:
                target = record
                break
        if target is None:
            for window in reversed(self._windows):
                if window.profile.name == name:
                    target = window.profile
                    break
        if target is None:
            return
        for key, value in counts.items():
            target.counts[key] = target.counts.get(key, 0) + int(value)

    def add_client(self, client_id: str, stats) -> None:
        """Record one HTTP client's per-host tallies (duck-typed
        :class:`~repro.web.client.ClientStats`).  Request and byte counts
        are deterministic; rates over them are derived at export."""
        by_host = dict(getattr(stats, "by_host", {}) or {})
        bytes_by_host = dict(getattr(stats, "bytes_by_host", {}) or {})
        hosts = [
            {
                "host": host,
                "requests": int(by_host.get(host, 0)),
                "bytes": int(bytes_by_host.get(host, 0)),
            }
            for host in sorted(set(by_host) | set(bytes_by_host))
        ]
        self.clients.append({
            "client": client_id,
            "requests_total": int(getattr(stats, "requests_sent", 0)),
            "bytes_total": int(getattr(stats, "bytes_received", 0)),
            "hosts": hosts,
        })

    # -- export ----------------------------------------------------------

    def stage_names(self) -> List[str]:
        """Analysis stages this profile covered (without the prefix)."""
        return [
            record.name[len(STAGE_PREFIX):]
            for record in self.phases if record.kind == "stage"
        ]

    def summary(self) -> dict:
        """The small manifest-embeddable summary."""
        covered = set(self.stage_names())
        return {
            "phases": len(self.phases),
            "stages_expected": len(self.stages_expected),
            "stages_covered": len(covered & set(self.stages_expected))
            if self.stages_expected else len(covered),
            "wall_seconds_total": _round6(self._wall_total),
        }

    def snapshot(self) -> dict:
        """The full profile as a JSON-serializable dict."""
        phase_counts: Dict[str, int] = {}
        mem_peak = 0
        for record in self.phases:
            mem_peak = max(mem_peak, record.mem_peak_bytes)
            if record.kind != "phase":
                # Stage counts restate their phase's inputs; summing
                # them into totals would double-count.
                continue
            for key, value in record.counts.items():
                phase_counts[key] = phase_counts.get(key, 0) + value
        throughput = {}
        if self._wall_total > 0:
            for key, count in sorted(phase_counts.items()):
                throughput[f"{key}_per_second"] = round(
                    count / self._wall_total, 3
                )
        rss_max_kb = 0
        if resource is not None:
            rss_max_kb = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        return {
            "schema": PROFILE_SCHEMA,
            "stages_expected": list(self.stages_expected),
            "phases": [record.to_dict() for record in self.phases],
            "clients": list(self.clients),
            "totals": {
                "sim_seconds": _round6(self._sim_total),
                "counts": dict(sorted(phase_counts.items())),
                # -- machine fields --
                "wall_seconds": _round6(self._wall_total),
                "throughput": throughput,
                "memory": {
                    "tracemalloc_peak_bytes": int(mem_peak),
                    "rss_max_kb": rss_max_kb,
                },
            },
        }

    def export_json(self, path: str) -> None:
        atomic_write_json(path, self.snapshot())


class NullProfiler:
    """Profiler stand-in for unprofiled runs; the count hooks are no-ops."""

    enabled = False

    def add_counts(self, name: str, **counts: int) -> None:
        pass

    def add_client(self, client_id: str, stats) -> None:
        pass


#: Shared no-op used as the default everywhere profiling is optional.
NULL_PROFILER = NullProfiler()


# ---------------------------------------------------------------------------
# reading profiles back
# ---------------------------------------------------------------------------

def deterministic_view(profile: dict) -> dict:
    """The profile with every machine-dependent field stripped.

    Same-seed twin runs must produce byte-identical
    ``json.dumps(deterministic_view(p), sort_keys=True)`` output; wall
    times, throughput rates, memory numbers, and env fingerprints are
    legitimate run-to-run variation and are excluded, mirroring how the
    tracer keeps ``wall_duration`` out of determinism comparisons.
    """

    def strip(node):
        if isinstance(node, dict):
            return {
                key: strip(value) for key, value in node.items()
                if key not in MACHINE_KEYS
            }
        if isinstance(node, list):
            return [strip(item) for item in node]
        return node

    return strip(profile)


def profile_stage_coverage(profile: dict) -> List[str]:
    """Expected analysis stages *missing* from a loaded profile dict.

    The expectation travels inside the file (``stages_expected``, set by
    the pipeline from the canonical stage roster), so readers need no
    import edge into :mod:`repro.analysis`.
    """
    expected = profile.get("stages_expected") or []
    covered = {
        phase.get("name", "")[len(STAGE_PREFIX):]
        for phase in profile.get("phases", [])
        if phase.get("kind") == "stage"
    }
    return [name for name in expected if name not in covered]


def load_profile(directory: str) -> Optional[dict]:
    """Read ``profile.json`` from a telemetry directory (None if absent)."""
    path = os.path.join(directory, PROFILE_FILENAME)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


__all__ = [
    "MACHINE_KEYS",
    "NULL_PROFILER",
    "NullProfiler",
    "PROFILE_FILENAME",
    "PROFILE_SCHEMA",
    "PhaseProfile",
    "STAGE_PREFIX",
    "StageProfiler",
    "deterministic_view",
    "load_profile",
    "profile_stage_coverage",
]
