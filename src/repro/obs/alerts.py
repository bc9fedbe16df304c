"""Deterministic anomaly alerting over the run registry.

``repro runs alerts`` judges the **latest** registered run against the
robust baseline (median/MAD, :mod:`repro.obs.trends`) of every run
before it, applying fixed rules.  The baseline-relative rules need at
least two earlier runs: against one, the MAD is 0 and seed-to-seed
variation alone would cross the floors.

``fidelity_band``
    A scorecard metric of the latest run is outside its own calibration
    band (the band ships inside ``scorecard.json``) — critical.
``fidelity_drop``
    A ground-truth fidelity score fell below the baseline median by
    more than ``max(k·MAD, fidelity_tolerance)`` — warning.  Calibration
    and coverage entries are bands, which ``fidelity_band`` judges (the
    rule ``repro diff`` applies too).
``stage_time``
    A stage's **simulated** duration exceeds baseline median +
    ``max(k·MAD, rel_floor·median, abs_floor)`` — warning.  Wall-clock
    stage times are machine noise and only checked with
    ``include_wall=True``.
``error_rate_spike``
    The crawl error rate rose above baseline median +
    ``max(k·MAD, error_rate_tolerance)`` — critical.
``quarantine_spike``
    More records were quarantined than baseline median +
    ``max(k·MAD, quarantine_floor)`` — warning.
``coverage_drop``
    Crawl page coverage, contract record coverage, or the number of
    traced stages fell below its baseline — critical.

A degraded (failed-stage) latest run misses whole metric families; the
rules never crash on the absence — each baseline metric the latest run
did not report becomes a non-alarming ``missing_metric`` note in the
report (and unscorable scorecard entries become ``unscorable_entry``
notes), and every remaining metric is still judged.

Every threshold is computed from values stored in the registry — no
wall clock, no randomness — so the same registry contents always
produce the same ``alerts.json``.  N same-seed runs of the same code
have zero-variance deterministic series and **must never alarm**; the
strict inequalities above guarantee that (latest == median fires
nothing), which CI enforces with its twin-run registry gate.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List

from repro.obs.schemas import ALERTS_SCHEMA
from repro.obs.summary import Section, format_text
from repro.obs.trends import TrendSeries, compute_trends
from repro.util.fileio import atomic_write_json

ALERTS_FILENAME = "alerts.json"

# The thresholds of the rules; every one has a floor so zero-variance
# histories (MAD = 0) need a real move to alarm.
#: MAD multiplier for all baseline-relative rules.
K_MAD = 4.0
#: Absolute drop a ground-truth fidelity score may take before alarming.
FIDELITY_TOLERANCE = 0.02
#: Relative growth a stage's sim time may take before alarming.
STAGE_TIME_REL_FLOOR = 0.25
#: Absolute sim-seconds growth always tolerated.
STAGE_TIME_ABS_FLOOR = 60.0
#: Absolute error-rate rise always tolerated.
ERROR_RATE_TOLERANCE = 0.01
#: Extra quarantined records always tolerated.
QUARANTINE_FLOOR = 5.0
#: Relative drop in crawl pages before coverage alarms.
COVERAGE_TOLERANCE = 0.05


@dataclass(frozen=True)
class Alert:
    """One fired rule: the metric, the observed value, and the
    threshold it crossed."""

    rule: str
    metric: str
    run_id: str
    value: float
    baseline: float
    threshold: float
    severity: str  # "warning" | "critical"
    message: str

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "metric": self.metric,
            "run_id": self.run_id,
            "value": round(self.value, 9),
            "baseline": round(self.baseline, 9),
            "threshold": round(self.threshold, 9),
            "severity": self.severity,
            "message": self.message,
        }


@dataclass(frozen=True)
class AlertNote:
    """A non-alarming observation the evaluation wants on the record —
    e.g. a baseline metric the (degraded) latest run never reported.

    Notes never fire the exit-1 path; they exist so a failed-stage run
    judged against a healthy baseline reads "these metrics were absent"
    instead of silently judging only what happens to be present."""

    kind: str  # "missing_metric" | "unscorable_entry"
    metric: str
    detail: str

    def to_dict(self) -> dict:
        return {"kind": self.kind, "metric": self.metric,
                "detail": self.detail}


@dataclass
class AlertReport:
    """Every alert of one evaluation plus the context it ran in."""

    run_id: str
    runs_considered: int
    #: The stage-time rule also judged wall clock (``--wall``).
    include_wall: bool = False
    alerts: List[Alert] = field(default_factory=list)
    notes: List[AlertNote] = field(default_factory=list)

    @property
    def fired(self) -> bool:
        return bool(self.alerts)

    def counts(self) -> dict:
        counts = {}
        for alert in self.alerts:
            counts[alert.severity] = counts.get(alert.severity, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> dict:
        return {
            "schema": ALERTS_SCHEMA,
            "run_id": self.run_id,
            "runs_considered": self.runs_considered,
            "fired": self.fired,
            "counts": self.counts(),
            "config": {
                "k_mad": K_MAD,
                "fidelity_tolerance": FIDELITY_TOLERANCE,
                "stage_time_rel_floor": STAGE_TIME_REL_FLOOR,
                "stage_time_abs_floor": STAGE_TIME_ABS_FLOOR,
                "error_rate_tolerance": ERROR_RATE_TOLERANCE,
                "quarantine_floor": QUARANTINE_FLOOR,
                "coverage_tolerance": COVERAGE_TOLERANCE,
                "include_wall": self.include_wall,
            },
            "alerts": [
                alert.to_dict()
                for alert in sorted(
                    self.alerts,
                    key=lambda a: (a.severity != "critical", a.rule, a.metric),
                )
            ],
            "notes": [
                note.to_dict()
                for note in sorted(self.notes,
                                   key=lambda n: (n.kind, n.metric))
            ],
        }

    def render_text(self) -> str:
        """The ``repro runs alerts`` verdict (:func:`alerts_section`)."""
        return format_text([alerts_section(self.to_dict())])


def alerts_section(document: dict) -> Section:
    """The alerts table of one ``alerts.json`` document
    (:meth:`AlertReport.to_dict`): its fired alerts, critical first,
    then its notes."""
    alerts = document.get("alerts") or []
    notes = document.get("notes") or []
    run_id = document.get("run_id")
    considered = f"{document.get('runs_considered')} run(s) considered"
    if alerts:
        title = f"{len(alerts)} alert(s) on run {run_id} ({considered})"
    else:
        title = (f"no alerts: latest run {run_id} is within baseline "
                 f"({considered})")
    rows = [
        [str(alert.get("severity")), str(alert.get("rule")),
         str(alert.get("metric")), f"{alert.get('value'):g}",
         f"{alert.get('threshold'):g}", str(alert.get("message"))]
        for alert in alerts
    ] + [
        ["note", str(note.get("kind")), str(note.get("metric")), "", "",
         str(note.get("detail"))]
        for note in notes
    ]
    return Section(
        title,
        headers=["severity", "rule", "metric", "value", "threshold",
                 "message"],
        rows=rows, numeric=(3, 4),
        status=[str(alert.get("severity")) for alert in alerts]
        + [""] * len(notes),
    )


def evaluate_alerts(registry, *, include_wall: bool = False) -> AlertReport:
    """Apply every rule to the latest run in ``registry``.

    ``include_wall`` also applies the stage-time rule to wall clock
    (``repro runs alerts --wall``)."""
    runs = registry.runs()
    if not runs:
        return AlertReport(run_id="", runs_considered=0,
                           include_wall=include_wall)
    latest = runs[-1]
    report = AlertReport(
        run_id=latest.run_id, runs_considered=len(runs),
        include_wall=include_wall,
    )
    scorecard = (registry.document(latest.run_id) or {}).get("scorecard")
    entries = (scorecard or {}).get("entries") or []
    ground_truth = {
        f"fidelity.{entry.get('name')}" for entry in entries
        if entry.get("kind") == "ground_truth"
    }

    _check_fidelity_band(entries, latest, report)
    for series in compute_trends(registry):
        name = series.name
        if series.points[-1].seq != latest.seq:
            # The latest run did not report this metric.  A degraded
            # (failed-stage) run legitimately misses whole metric
            # families, and judging only what happens to be present
            # would silently shrink the ruleset — so put the absence on
            # the record.  Machine-dependent metrics (wall clock,
            # profile) are only noted when wall alerting is opted in:
            # an unprofiled run after profiled ones is not a finding.
            if series.machine_dependent and not include_wall:
                continue
            report.notes.append(AlertNote(
                kind="missing_metric", metric=name,
                detail=(
                    f"reported by {series.n} baseline run(s) but absent "
                    f"from latest run {latest.run_id}"
                ),
            ))
            continue
        if series.n < 3:
            # Fewer than two baseline runs: no spread to judge against.
            continue
        if name in ground_truth:
            _check_fidelity_drop(series, report)
        elif name.startswith("stage_sim_seconds."):
            _check_stage_time(series, report, clock="sim")
        elif name.startswith("stage_wall_seconds.") and include_wall:
            _check_stage_time(series, report, clock="wall")
        elif name == "crawl.error_rate":
            _check_error_rate(series, report)
        elif name == "contracts.quarantine_total":
            _check_quarantine(series, report)
        elif name in ("crawl.pages_total", "contracts.coverage",
                      "trace.stages_total"):
            _check_coverage(series, report)
    return report


# ---------------------------------------------------------------------------
# individual rules
# ---------------------------------------------------------------------------

def _check_fidelity_band(entries, latest, report: AlertReport) -> None:
    """Scorecard entries of the latest run outside their own band."""
    for entry in entries:
        if entry.get("passed", True):
            continue
        raw = (entry.get("value"), entry.get("low"), entry.get("high"))
        if any(isinstance(v, bool) or not isinstance(v, (int, float, type(None)))
               for v in raw) or raw[0] is None:
            # A degraded run can leave unscorable entries (value None,
            # string placeholders); note them instead of crashing the
            # whole evaluation on float(None).
            report.notes.append(AlertNote(
                kind="unscorable_entry",
                metric=f"fidelity.{entry.get('name')}",
                detail=f"non-numeric scorecard entry {raw!r} skipped",
            ))
            continue
        value = float(raw[0])
        low = float(raw[1] if raw[1] is not None else 0.0)
        high = float(raw[2] if raw[2] is not None else 1.0)
        report.alerts.append(Alert(
            rule="fidelity_band",
            metric=f"fidelity.{entry.get('name')}",
            run_id=latest.run_id,
            value=value,
            baseline=low,
            threshold=low if value < low else high,
            severity="critical",
            message=(
                f"{entry.get('name')}={value:g} outside calibration band "
                f"[{low:g}, {high:g}]"
            ),
        ))


def _check_fidelity_drop(series: TrendSeries, report: AlertReport) -> None:
    baseline = series.baseline_median()
    slack = max(K_MAD * series.baseline_mad(), FIDELITY_TOLERANCE)
    threshold = baseline - slack
    if series.latest < threshold:
        report.alerts.append(Alert(
            rule="fidelity_drop", metric=series.name,
            run_id=series.points[-1].run_id,
            value=series.latest, baseline=baseline, threshold=threshold,
            severity="warning",
            message=(
                f"dropped to {series.latest:g} from baseline median "
                f"{baseline:g} (tolerance {slack:g})"
            ),
        ))


def _check_stage_time(series: TrendSeries, report: AlertReport,
                      clock: str) -> None:
    baseline = series.baseline_median()
    slack = max(
        K_MAD * series.baseline_mad(),
        STAGE_TIME_REL_FLOOR * baseline,
        STAGE_TIME_ABS_FLOOR if clock == "sim" else 0.05,
    )
    threshold = baseline + slack
    if series.latest > threshold:
        report.alerts.append(Alert(
            rule="stage_time", metric=series.name,
            run_id=series.points[-1].run_id,
            value=series.latest, baseline=baseline, threshold=threshold,
            severity="warning",
            message=(
                f"{clock} time {series.latest:g}s exceeds baseline median "
                f"{baseline:g}s + {slack:g}s"
            ),
        ))


def _check_error_rate(series: TrendSeries, report: AlertReport) -> None:
    baseline = series.baseline_median()
    slack = max(K_MAD * series.baseline_mad(), ERROR_RATE_TOLERANCE)
    threshold = baseline + slack
    if series.latest > threshold:
        report.alerts.append(Alert(
            rule="error_rate_spike", metric=series.name,
            run_id=series.points[-1].run_id,
            value=series.latest, baseline=baseline, threshold=threshold,
            severity="critical",
            message=(
                f"error rate {series.latest:g} exceeds baseline median "
                f"{baseline:g} + {slack:g}"
            ),
        ))


def _check_quarantine(series: TrendSeries, report: AlertReport) -> None:
    baseline = series.baseline_median()
    slack = max(K_MAD * series.baseline_mad(), QUARANTINE_FLOOR)
    threshold = baseline + slack
    if series.latest > threshold:
        report.alerts.append(Alert(
            rule="quarantine_spike", metric=series.name,
            run_id=series.points[-1].run_id,
            value=series.latest, baseline=baseline, threshold=threshold,
            severity="warning",
            message=(
                f"{series.latest:g} quarantined records exceed baseline "
                f"median {baseline:g} + {slack:g}"
            ),
        ))


def _check_coverage(series: TrendSeries, report: AlertReport) -> None:
    baseline = series.baseline_median()
    threshold = baseline * (1.0 - COVERAGE_TOLERANCE)
    if series.latest < threshold:
        report.alerts.append(Alert(
            rule="coverage_drop", metric=series.name,
            run_id=series.points[-1].run_id,
            value=series.latest, baseline=baseline, threshold=threshold,
            severity="critical",
            message=(
                f"coverage {series.latest:g} fell below "
                f"{threshold:g} ({100 * COVERAGE_TOLERANCE:g}% under "
                f"baseline median {baseline:g})"
            ),
        ))


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def write_alerts(path: str, report: AlertReport) -> str:
    """Write ``alerts.json``; ``path`` may be a directory or a file."""
    if os.path.isdir(path):
        path = os.path.join(path, ALERTS_FILENAME)
    return atomic_write_json(path, report.to_dict())


__all__ = [
    "ALERTS_FILENAME",
    "Alert",
    "AlertNote",
    "AlertReport",
    "alerts_section",
    "evaluate_alerts",
    "write_alerts",
]
