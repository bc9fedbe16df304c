"""Run-to-run regression diffing: ``repro diff RUN_A RUN_B``.

Compares the run-dir documents of two telemetry directories
(:func:`~repro.obs.summary.trace_document`) and classifies every change
as informational or a **regression**:

* scorecard entries whose value dropped by more than the tolerance, or
  that flipped from passing to failing (or appeared already failing),
  including unscorable entries whose value is not a number;
* error-flavoured metrics (``*error*``, ``robots_blocked_total``,
  ``watchdog_findings``) that increased, and ``crawl_coverage_ratio``
  series that decreased beyond tolerance;
* warning/error event kinds present in B but absent from A;
* stages whose **simulated** duration grew past the tolerance band.

Wall-clock durations are machine noise, never regressions, and are kept
out of the default rendering so that diffing two same-seed runs
produces byte-identical (and empty) output; ``include_wall=True`` adds
an informational wall-ratio section.

The CLI maps the result to exit codes: 0 = no regressions, 1 =
regressions found, 2 = a directory could not be loaded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

#: Substrings marking a metric as "more of it is worse".
_ERROR_METRIC_MARKERS = ("error", "robots_blocked", "watchdog_findings")
#: Relative growth of an error metric tolerated (0.0 = any increase
#: regresses).
_ERROR_METRIC_TOLERANCE = 0.0
#: Absolute drop in a coverage ratio tolerated.
_COVERAGE_TOLERANCE = 0.02
#: Absolute drop in a ground-truth scorecard value that counts as a
#: regression.
_SCORECARD_TOLERANCE = 0.02
#: Relative growth in per-stage *simulated* duration tolerated.
_SIM_DURATION_TOLERANCE = 0.25


@dataclass(frozen=True)
class DiffLine:
    """One observed difference between the two runs."""

    section: str  # "scorecard" | "metrics" | "events" | "stages"
    name: str
    #: A number, ``None`` when absent, or an unscorable scorecard value.
    a: Any
    b: Any
    regression: bool
    note: str = ""

    def render(self) -> str:
        def fmt(value: Any) -> str:
            if value is None:
                return "-"
            return f"{value:g}" if isinstance(value, (int, float)) else str(value)

        marker = "REGRESSION" if self.regression else "change"
        text = f"  [{marker}] {self.name}: {fmt(self.a)} -> {fmt(self.b)}"
        if self.note:
            text += f"  ({self.note})"
        return text


@dataclass
class RunDiff:
    """All differences between two runs, regression-classified."""

    run_a: str
    run_b: str
    lines: List[DiffLine] = field(default_factory=list)
    wall_lines: List[str] = field(default_factory=list)

    def regressions(self) -> List[DiffLine]:
        return [line for line in self.lines if line.regression]

    @property
    def has_regressions(self) -> bool:
        return any(line.regression for line in self.lines)

    def render_text(self) -> str:
        out: List[str] = [f"diff: {self.run_a} -> {self.run_b}"]
        if not self.lines:
            out.append("no differences")
        else:
            by_section: Dict[str, List[DiffLine]] = {}
            for line in self.lines:
                by_section.setdefault(line.section, []).append(line)
            for section in sorted(by_section):
                out.append(f"{section}:")
                out.extend(line.render() for line in by_section[section])
        if self.wall_lines:
            out.append("stage wall-time ratios (informational, machine-dependent):")
            out.extend(self.wall_lines)
        n = len(self.regressions())
        out.append(
            f"{n} regression{'s' if n != 1 else ''}, "
            f"{len(self.lines)} difference{'s' if len(self.lines) != 1 else ''}"
        )
        return "\n".join(out)


def diff_runs(a: dict, b: dict, *, include_wall: bool = False) -> RunDiff:
    """Compare two run-dir documents (A = baseline, B = new).

    ``include_wall`` adds the informational wall-ratio section
    (``repro diff --wall``)."""
    diff = RunDiff(run_a=a["path"], run_b=b["path"])
    _diff_scorecards(diff, a, b)
    _diff_metrics(diff, a, b)
    _diff_events(diff, a, b)
    _diff_stages(diff, a, b, include_wall)
    return diff


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------

def _diff_scorecards(diff: RunDiff, a: dict, b: dict) -> None:
    entries_a = {e["name"]: e for e in (a["scorecard"] or {}).get("entries", [])}
    entries_b = {e["name"]: e for e in (b["scorecard"] or {}).get("entries", [])}
    for name in sorted(set(entries_a) | set(entries_b)):
        ea, eb = entries_a.get(name), entries_b.get(name)
        if ea is None:
            regression = not eb.get("passed", True)
            diff.lines.append(DiffLine(
                "scorecard", name, None, eb.get("value"),
                regression=regression,
                note="new entry" + (" (failing)" if regression else ""),
            ))
            continue
        if eb is None:
            diff.lines.append(DiffLine(
                "scorecard", name, ea.get("value"), None,
                regression=False, note="entry vanished",
            ))
            continue
        va, vb = ea.get("value"), eb.get("value")
        newly_failing = ea.get("passed", True) and not eb.get("passed", True)
        dropped = (
            ea.get("kind") == "ground_truth"
            and isinstance(va, (int, float)) and isinstance(vb, (int, float))
            and va - vb > _SCORECARD_TOLERANCE
        )
        if va != vb or newly_failing:
            note = "now failing" if newly_failing else ""
            diff.lines.append(DiffLine(
                "scorecard", name, va, vb,
                regression=newly_failing or dropped, note=note,
            ))


def _is_error_metric(name: str) -> bool:
    return any(marker in name for marker in _ERROR_METRIC_MARKERS)


def _diff_metrics(diff: RunDiff, a: dict, b: dict) -> None:
    metrics_a, metrics_b = a["metrics"], b["metrics"]
    for key in sorted(set(metrics_a) | set(metrics_b)):
        name = key.split("{", 1)[0]
        va = metrics_a.get(key)
        vb = metrics_b.get(key)
        if va is None or vb is None or va != vb:
            regression = False
            note = ""
            if _is_error_metric(name):
                baseline = va or 0.0
                current = vb or 0.0
                allowed = baseline * (1.0 + _ERROR_METRIC_TOLERANCE)
                if current > allowed:
                    regression = True
                    note = "error metric increased"
            elif name == "crawl_coverage_ratio" and va is not None:
                if (vb or 0.0) < va - _COVERAGE_TOLERANCE:
                    regression = True
                    note = "coverage dropped"
            diff.lines.append(DiffLine(
                "metrics", key, va, vb, regression=regression, note=note,
            ))


def _diff_events(diff: RunDiff, a: dict, b: dict) -> None:
    counts_a, counts_b = a["warning_events"], b["warning_events"]
    for kind in sorted(set(counts_a) | set(counts_b)):
        ca, cb = counts_a.get(kind), counts_b.get(kind)
        if ca == cb:
            continue
        if ca is None:
            diff.lines.append(DiffLine(
                "events", kind, None, float(cb),
                regression=True, note="new error kind",
            ))
        elif cb is None:
            diff.lines.append(DiffLine(
                "events", kind, float(ca), None,
                regression=False, note="error kind vanished",
            ))
        else:
            diff.lines.append(DiffLine(
                "events", kind, float(ca), float(cb),
                regression=cb > ca, note="count changed",
            ))


def _diff_stages(diff: RunDiff, a: dict, b: dict,
                 include_wall: bool) -> None:
    stages_a = {stage["name"]: stage for stage in a["stages"]}
    stages_b = {stage["name"]: stage for stage in b["stages"]}
    for name in sorted(set(stages_a) | set(stages_b)):
        sa, sb = stages_a.get(name), stages_b.get(name)
        if sa is None or sb is None:
            diff.lines.append(DiffLine(
                "stages", name,
                None if sa is None else sa.get("sim_seconds", 0.0),
                None if sb is None else sb.get("sim_seconds", 0.0),
                regression=False,
                note="stage appeared" if sa is None else "stage vanished",
            ))
            continue
        sim_a = float(sa.get("sim_seconds", 0.0))
        sim_b = float(sb.get("sim_seconds", 0.0))
        if sim_a != sim_b:
            slower = (
                sim_a > 0
                and sim_b > sim_a * (1.0 + _SIM_DURATION_TOLERANCE)
            )
            ratio = sim_b / sim_a if sim_a else float("inf")
            diff.lines.append(DiffLine(
                "stages", f"{name} (sim s)", round(sim_a, 3), round(sim_b, 3),
                regression=slower,
                note=f"x{ratio:.2f}" if sim_a else "new sim time",
            ))
        if include_wall:
            wall_a = float(sa.get("wall_seconds", 0.0))
            wall_b = float(sb.get("wall_seconds", 0.0))
            if wall_a > 0:
                diff.wall_lines.append(
                    f"  {name}: {wall_a:.3f}s -> {wall_b:.3f}s "
                    f"(x{wall_b / wall_a:.2f})"
                )


__all__ = ["DiffLine", "RunDiff", "diff_runs"]
