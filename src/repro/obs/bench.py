"""The ``repro bench`` harness: ``BENCH_pipeline.json`` baselines.

Runs the scale-0.02 throughput study (the same configuration as
``benchmarks/test_pipeline_throughput.py``) N times with a memory-off
:class:`~repro.obs.prof.StageProfiler`, which reads each phase's wall
and sim time off its span (no tracemalloc, so the numbers are
undistorted), plus one dedicated memory round with full tracing, and
writes a schema-versioned baseline:

* median/p95/min/max wall seconds, total and per stage;
* pages/s and records/s medians;
* peak tracemalloc bytes and max RSS from the memory round;
* an environment fingerprint (python, platform, cpu count, git).

``compare_bench`` classifies every metric of a fresh result against a
committed baseline as **improved**, **within-noise**, or **regressed**
under a configurable relative tolerance; the CLI exits 1 on any
regression (CI runs this as a soft perf gate) and 2 on a corrupt or
schema-mismatched baseline (always a hard failure — a rotten baseline
silently waves every regression through).

Wall-clock numbers here are machine-dependent by design: the bench file
is a committed *trend artifact* (the repo's perf history), not a
determinism-gated output — see the DESIGN note on why wall time is
excluded from twin-run byte-identity gates.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.obs.manifest import git_describe
from repro.obs.prof import StageProfiler
from repro.obs.schemas import BENCH_SCHEMA
from repro.util.fileio import atomic_write_json
from repro.util.stats import percentile

BENCH_FILENAME = "BENCH_pipeline.json"

#: Default timing rounds (``repro bench --rounds``).
DEFAULT_ROUNDS = 5
#: Default relative drift tolerated before a metric counts as improved
#: or regressed.
DEFAULT_TOLERANCE = 0.25
#: Stages whose baseline wall time is below this floor are too noisy to
#: classify; they always compare within-noise.
MIN_STAGE_WALL_SECONDS = 0.02


class BenchError(RuntimeError):
    """A bench baseline is missing, corrupt, or schema-incompatible.

    The message is a single printable line; the CLI maps it to exit 2.
    """


def env_fingerprint() -> dict:
    """Where a bench result came from (never compared, always recorded)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "git": git_describe(),
    }


def _summary(values: Sequence[float]) -> dict:
    return {
        "median": round(percentile(values, 50), 6),
        "p95": round(percentile(values, 95), 6),
        "min": round(min(values), 6),
        "max": round(max(values), 6),
        "rounds": [round(v, 6) for v in values],
    }


def run_bench(rounds: int = DEFAULT_ROUNDS, scale: float = 0.02,
              iterations: int = 3, seed: int = 99,
              profile_out: Optional[str] = None,
              progress: Optional[Callable[[str], None]] = None) -> dict:
    """Run the throughput study ``rounds`` times and build a bench dict.

    ``profile_out`` additionally exports the memory round's full
    ``profile.json`` (CI uploads it as an artifact).  ``progress`` gets
    one short line per round for CLI feedback.
    """
    # Imported here, not at module top: obs must not hold an import edge
    # into core (core.pipeline imports the telemetry facade).
    from repro.analysis.suite import STAGE_NAMES
    from repro.core.pipeline import Study, StudyConfig
    from repro.obs.telemetry import Telemetry

    rounds = max(1, rounds)
    config = StudyConfig(seed=seed, scale=scale, iterations=iterations)
    say = progress or (lambda line: None)

    total_walls: List[float] = []
    stage_walls: Dict[str, List[float]] = {}
    stage_sims: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    sim_seconds = 0.0

    def one_round(memory: bool) -> StageProfiler:
        profiler = StageProfiler(memory=memory, stages_expected=STAGE_NAMES)
        telemetry = Telemetry(profiler=profiler)
        Study(config, telemetry=telemetry).run()
        return profiler

    for index in range(rounds):
        start = time.perf_counter()
        profiler = one_round(memory=False)
        wall = time.perf_counter() - start
        total_walls.append(wall)
        say(f"round {index + 1}/{rounds}: {wall:.2f}s wall")
        snapshot = profiler.snapshot()
        sim_seconds = snapshot["totals"]["sim_seconds"]
        counts = snapshot["totals"]["counts"]
        for phase in snapshot["phases"]:
            stage_walls.setdefault(phase["name"], []).append(
                phase["wall_seconds"]
            )
            stage_sims[phase["name"]] = phase["sim_seconds"]

    say("memory round (tracemalloc on)")
    profiler = one_round(memory=True)
    snapshot = profiler.snapshot()
    memory = snapshot["totals"]["memory"]
    stage_memory = {
        phase["name"]: phase["memory"]["peak_bytes"]
        for phase in snapshot["phases"]
    }
    if profile_out:
        profiler.export_json(profile_out)

    wall_median = percentile(total_walls, 50)
    pages = int(counts.get("pages", 0))
    records = int(counts.get("records", 0))
    stages = {}
    for name, walls in sorted(stage_walls.items()):
        stages[name] = {
            "wall_median": round(percentile(walls, 50), 6),
            "wall_p95": round(percentile(walls, 95), 6),
            "sim_seconds": stage_sims.get(name, 0.0),
        }
        if name in stage_memory:
            stages[name]["mem_peak_bytes"] = stage_memory[name]
    return {
        "schema": BENCH_SCHEMA,
        "config": {
            "scale": scale,
            "iterations": iterations,
            "seed": seed,
            "rounds": rounds,
        },
        "env": env_fingerprint(),
        "totals": {
            "wall_seconds": _summary(total_walls),
            "sim_seconds": sim_seconds,
            "pages": pages,
            "records": records,
            "pages_per_second_median": round(pages / wall_median, 3)
            if wall_median > 0 else 0.0,
            "records_per_second_median": round(records / wall_median, 3)
            if wall_median > 0 else 0.0,
            "memory": memory,
        },
        "stages": stages,
    }


def write_bench(path: str, bench: dict) -> str:
    return atomic_write_json(path, bench, trailing_newline=True)


def load_baseline(path: str) -> dict:
    """Read and validate a bench baseline; :class:`BenchError` otherwise."""
    if not os.path.exists(path):
        raise BenchError(f"no bench baseline at {path}")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
    except (ValueError, OSError) as exc:
        raise BenchError(f"corrupt bench baseline {path}: {exc}") from None
    if not isinstance(baseline, dict) or baseline.get("schema") != BENCH_SCHEMA:
        raise BenchError(
            f"bench baseline {path} has schema "
            f"{(baseline or {}).get('schema')!r}, expected {BENCH_SCHEMA!r}"
        )
    return baseline


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

IMPROVED = "improved"
WITHIN_NOISE = "within-noise"
REGRESSED = "regressed"


@dataclass(frozen=True)
class MetricDrift:
    """One metric's movement between baseline and current."""

    name: str
    baseline: float
    current: float
    verdict: str  # IMPROVED | WITHIN_NOISE | REGRESSED
    note: str = ""

    def render(self) -> str:
        marker = {REGRESSED: "REGRESSED", IMPROVED: "improved",
                  WITHIN_NOISE: "within noise"}[self.verdict]
        ratio = self.current / self.baseline if self.baseline else float("inf")
        text = (f"  [{marker}] {self.name}: {self.baseline:g} -> "
                f"{self.current:g} (x{ratio:.2f})")
        if self.note:
            text += f"  ({self.note})"
        return text


@dataclass
class BenchComparison:
    """All metric drifts between a baseline and a fresh bench result."""

    baseline_path: str
    tolerance: float
    drifts: List[MetricDrift] = field(default_factory=list)

    @property
    def regressed(self) -> bool:
        return any(d.verdict == REGRESSED for d in self.drifts)

    def verdicts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for drift in self.drifts:
            counts[drift.verdict] = counts.get(drift.verdict, 0) + 1
        return counts

    def render_text(self) -> str:
        out = [
            f"bench compare vs {self.baseline_path} "
            f"(tolerance {self.tolerance:.0%})"
        ]
        out.extend(drift.render() for drift in self.drifts)
        counts = self.verdicts()
        out.append(
            f"{counts.get(REGRESSED, 0)} regressed, "
            f"{counts.get(IMPROVED, 0)} improved, "
            f"{counts.get(WITHIN_NOISE, 0)} within noise"
        )
        return "\n".join(out)


def _classify(name: str, baseline: float, current: float, tolerance: float,
              lower_is_better: bool, note: str = "") -> MetricDrift:
    if baseline <= 0:
        return MetricDrift(name, baseline, current, WITHIN_NOISE,
                           note="no baseline signal")
    ratio = current / baseline
    if lower_is_better:
        worse, better = ratio > 1.0 + tolerance, ratio < 1.0 - tolerance
    else:
        worse, better = ratio < 1.0 - tolerance, ratio > 1.0 + tolerance
    verdict = REGRESSED if worse else IMPROVED if better else WITHIN_NOISE
    return MetricDrift(name, baseline, current, verdict, note)


def compare_bench(baseline: dict, current: dict,
                  tolerance: float = DEFAULT_TOLERANCE,
                  baseline_path: str = BENCH_FILENAME) -> BenchComparison:
    """Classify every comparable metric's drift (baseline -> current)."""
    if baseline.get("schema") != BENCH_SCHEMA:
        raise BenchError(
            f"bench baseline has schema {baseline.get('schema')!r}, "
            f"expected {BENCH_SCHEMA!r}"
        )
    comparison = BenchComparison(baseline_path=baseline_path,
                                 tolerance=tolerance)
    base_totals = baseline.get("totals") or {}
    cur_totals = current.get("totals") or {}

    def total_wall(totals: dict) -> float:
        return float((totals.get("wall_seconds") or {}).get("median", 0.0))

    comparison.drifts.append(_classify(
        "total_wall_seconds_median", total_wall(base_totals),
        total_wall(cur_totals), tolerance, lower_is_better=True,
    ))
    for name, lower in (("pages_per_second_median", False),
                        ("records_per_second_median", False)):
        comparison.drifts.append(_classify(
            name, float(base_totals.get(name, 0.0)),
            float(cur_totals.get(name, 0.0)), tolerance,
            lower_is_better=lower,
        ))
    base_mem = (base_totals.get("memory") or {})
    cur_mem = (cur_totals.get("memory") or {})
    if base_mem.get("tracemalloc_peak_bytes") and \
            cur_mem.get("tracemalloc_peak_bytes"):
        comparison.drifts.append(_classify(
            "tracemalloc_peak_bytes",
            float(base_mem["tracemalloc_peak_bytes"]),
            float(cur_mem["tracemalloc_peak_bytes"]),
            tolerance, lower_is_better=True,
        ))
    base_stages = baseline.get("stages") or {}
    cur_stages = current.get("stages") or {}
    for name in sorted(set(base_stages) & set(cur_stages)):
        base_wall = float(base_stages[name].get("wall_median", 0.0))
        cur_wall = float(cur_stages[name].get("wall_median", 0.0))
        if base_wall < MIN_STAGE_WALL_SECONDS:
            comparison.drifts.append(MetricDrift(
                f"stage:{name}", base_wall, cur_wall, WITHIN_NOISE,
                note=f"baseline below {MIN_STAGE_WALL_SECONDS}s floor",
            ))
            continue
        comparison.drifts.append(_classify(
            f"stage:{name}", base_wall, cur_wall, tolerance,
            lower_is_better=True,
        ))
    return comparison


__all__ = [
    "BENCH_FILENAME",
    "BENCH_SCHEMA",
    "BenchComparison",
    "BenchError",
    "DEFAULT_ROUNDS",
    "DEFAULT_TOLERANCE",
    "IMPROVED",
    "MetricDrift",
    "REGRESSED",
    "WITHIN_NOISE",
    "compare_bench",
    "env_fingerprint",
    "load_baseline",
    "run_bench",
    "write_bench",
]
