"""Per-metric trend series across registered runs.

Reads a :class:`~repro.obs.registry.RunRegistry` and turns each stored
metric into a :class:`TrendSeries`: the ordered points plus the robust
baseline statistics (median and MAD — median absolute deviation) that
the deterministic anomaly rules in :mod:`repro.obs.alerts` threshold
against.  Median/MAD rather than mean/stddev because run histories are
short and a single bad run must not drag its own baseline toward
itself.

Everything here is pure arithmetic over registry contents: same
registry, same trends, byte for byte.  N same-seed runs of the same
code produce zero-variance fidelity and sim-time series (MAD = 0); only
wall-clock metrics (``stage_wall_seconds.*``, ``profile.*``) vary with
the machine, which is why alerting treats them as opt-in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.schemas import TRENDS_SCHEMA
from repro.obs.summary import Section, format_text
from repro.util import stats

#: Metric-name prefixes whose values depend on the machine, not the
#: seed; rendered for context but excluded from default alerting.
MACHINE_METRIC_PREFIXES = ("stage_wall_seconds.", "profile.")

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def median(values: Sequence[float]) -> float:
    """The median of a sequence (0.0 when empty)."""
    return float(stats.median(values)) if values else 0.0


def mad(values: Sequence[float], center: Optional[float] = None) -> float:
    """Median absolute deviation around ``center`` (default: median)."""
    mid = median(values) if center is None else center
    return median([abs(value - mid) for value in values])


def sparkline(values: Sequence[float]) -> str:
    """A unicode block-character sparkline of a value sequence."""
    if not values:
        return ""
    low, high = min(values), max(values)
    if high - low <= 0:
        return _SPARK_LEVELS[0] * len(values)
    span = high - low
    return "".join(
        _SPARK_LEVELS[
            min(int((value - low) / span * len(_SPARK_LEVELS)),
                len(_SPARK_LEVELS) - 1)
        ]
        for value in values
    )


@dataclass
class TrendPoint:
    """One metric observation: the run it came from, in ingest order."""

    seq: int
    run_id: str
    value: float

    def to_dict(self) -> dict:
        return {"seq": self.seq, "run_id": self.run_id, "value": self.value}


@dataclass
class TrendSeries:
    """One metric across runs plus its rolling baseline statistics."""

    name: str
    points: List[TrendPoint] = field(default_factory=list)

    @property
    def values(self) -> List[float]:
        return [point.value for point in self.points]

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def latest(self) -> float:
        return self.points[-1].value if self.points else 0.0

    @property
    def machine_dependent(self) -> bool:
        return self.name.startswith(MACHINE_METRIC_PREFIXES)

    def baseline_values(self) -> List[float]:
        """Every value but the latest — the history the newest run is
        judged against.  A single-run series has no baseline."""
        return self.values[:-1]

    def baseline_median(self) -> float:
        return median(self.baseline_values())

    def baseline_mad(self) -> float:
        return mad(self.baseline_values())

    @property
    def zero_variance(self) -> bool:
        values = self.values
        return len(set(values)) <= 1 if values else True

    @property
    def delta(self) -> float:
        """Latest value minus the baseline median (0 with no history)."""
        if len(self.points) < 2:
            return 0.0
        return self.latest - self.baseline_median()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "latest": self.latest,
            "median": median(self.values),
            "mad": mad(self.values),
            "min": min(self.values) if self.points else 0.0,
            "max": max(self.values) if self.points else 0.0,
            "delta": round(self.delta, 9),
            "zero_variance": self.zero_variance,
            "machine_dependent": self.machine_dependent,
            "points": [point.to_dict() for point in self.points],
        }


def compute_trends(registry) -> List[TrendSeries]:
    """Every registered metric as a trend series over all runs, sorted
    by name."""
    return [
        TrendSeries(
            name=name,
            points=[TrendPoint(seq, run_id, value)
                    for (seq, run_id, value) in registry.series(name)],
        )
        for name in registry.metric_names()
    ]


def trends_document(series_list: Sequence[TrendSeries],
                    runs: Optional[Sequence] = None) -> dict:
    """The machine-readable ``repro runs trends --json`` document."""
    return {
        "schema": TRENDS_SCHEMA,
        "n_series": len(series_list),
        "runs": [run.to_dict() for run in runs] if runs is not None else None,
        "series": [series.to_dict() for series in series_list],
    }


_TREND_HEADERS = ["metric", "n", "min", "median", "mad", "latest",
                  "delta", "trend"]


def _trend_row(series: TrendSeries) -> List[str]:
    values = series.values
    return [
        series.name,
        str(series.n),
        _fmt(min(values)),
        _fmt(median(values)),
        _fmt(mad(values)),
        _fmt(series.latest),
        _fmt(series.delta, signed=True),
        sparkline(values),
    ]


def trend_sections(series_list: Sequence[TrendSeries]) -> List[Section]:
    """One table of deterministic series and one of machine-dependent
    series, each row a metric with its baseline statistics and history
    sparkline."""
    if not series_list:
        return [Section("no metrics registered yet")]
    groups = (
        ("trends (deterministic metrics)", [], False),
        ("trends (machine-dependent: wall clock, memory)",
         ["excluded from default alerting"], True),
    )
    sections = []
    for title, lines, machine in groups:
        rows = [_trend_row(series) for series in series_list
                if series.machine_dependent == machine]
        if rows:
            sections.append(Section(title, lines, _TREND_HEADERS, rows,
                                    numeric=(1, 2, 3, 4, 5, 6)))
    return sections


def runs_section(runs: Sequence) -> Section:
    """The run roster of a registry
    (:class:`~repro.obs.registry.RunRow`): sorted by run id and without
    the wall-clock ingestion stamp, so two registries holding the same
    runs list them byte-identically."""
    if not runs:
        return Section("no runs registered")
    rows, status = [], []
    for run in sorted(runs, key=lambda run: run.run_id):
        passed = run.scorecard_passed
        rows.append([
            str(run.seq), run.run_id, str(run.seed), run.config_hash,
            run.chaos or "off", run.git or "",
            "-" if passed is None else "PASS" if passed else "FAIL",
        ])
        status.append("" if passed is None else "ok" if passed else "fail")
    return Section(
        f"runs ({len(runs)} registered)",
        headers=["seq", "run id", "seed", "config", "chaos", "git",
                 "scorecard"],
        rows=rows, numeric=(0,), status=status,
    )


def render_trends_text(series_list: Sequence[TrendSeries]) -> str:
    """The ``repro runs trends`` tables (:func:`trend_sections`)."""
    return format_text(trend_sections(series_list))


def _fmt(value: float, signed: bool = False) -> str:
    if value == int(value) and abs(value) < 1e15:
        text = f"{int(value):+d}" if signed else f"{int(value):d}"
    else:
        text = f"{value:+.4f}" if signed else f"{value:.4f}"
    return text


__all__ = [
    "MACHINE_METRIC_PREFIXES",
    "TrendPoint",
    "TrendSeries",
    "compute_trends",
    "mad",
    "median",
    "render_trends_text",
    "runs_section",
    "sparkline",
    "trend_sections",
    "trends_document",
]
