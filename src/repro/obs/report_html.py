"""``repro health DIR`` — a single-file, zero-dependency HTML dashboard.

Renders one run-dir document (:func:`~repro.obs.summary.trace_document`)
into a self-contained HTML page: run header, fidelity scorecard with
in-band/out-of-band gauges, watchdog findings, per-stage durations,
per-marketplace crawl stats, per-host HTTP latency quantiles and
retry/politeness overhead, and the event breakdown.  Styling is inline
CSS; no JavaScript, no external assets, so the file can be archived as
a CI artifact and opened anywhere.
"""

from __future__ import annotations

import html
from typing import List, Optional, Sequence

from repro.obs.summary import memory_totals_label

REPORT_FILENAME = "health.html"

_CSS = """
body { font-family: system-ui, sans-serif; margin: 2rem; color: #1a202c; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; margin-top: .5rem; }
th, td { border: 1px solid #cbd5e0; padding: .25rem .6rem;
         font-size: .85rem; text-align: left; }
th { background: #edf2f7; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.ok { color: #276749; } .fail { color: #9b2c2c; font-weight: 600; }
.warning { color: #975a16; } .critical { color: #9b2c2c; font-weight: 600; }
.meter { background: #e2e8f0; width: 140px; height: .75rem;
         display: inline-block; position: relative; }
.meter > span { background: #48bb78; height: 100%; display: block; }
.meter.out > span { background: #f56565; }
.muted { color: #718096; font-size: .8rem; }
"""


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]],
           numeric: Sequence[int] = ()) -> str:
    head = "".join(f"<th>{html.escape(h)}</th>" for h in headers)
    body: List[str] = []
    for row in rows:
        cells = []
        for index, cell in enumerate(row):
            css = ' class="num"' if index in numeric else ""
            cells.append(f"<td{css}>{cell}</td>")
        body.append("<tr>" + "".join(cells) + "</tr>")
    return (
        f"<table><thead><tr>{head}</tr></thead>"
        f"<tbody>{''.join(body)}</tbody></table>"
    )


def _meter(value: float, low: float, high: float) -> str:
    """A filled bar showing where a value sits; red when out of band."""
    span = max(high - low, 1e-9)
    fill = min(max((value - low) / span, 0.0), 1.0) * 100.0
    out = "" if low <= value <= high else " out"
    return f'<div class="meter{out}"><span style="width:{fill:.0f}%"></span></div>'


def _section_header(document: dict) -> str:
    run = document["run"]
    bits: List[str] = [f"<h1>Run health: {html.escape(document['path'])}</h1>"]
    meta = [f"{key}={value}" for key, value in run["config"].items()]
    if run["git"]:
        meta.append(f"git={run['git']}")
    if run["simulated_seconds"] is not None:
        meta.append(f"simulated_seconds={run['simulated_seconds']:,.0f}")
    if meta:
        bits.append(f'<p class="muted">{html.escape(", ".join(meta))}</p>')
    return "\n".join(bits)


def _section_scorecard(card: Optional[dict]) -> str:
    if not card:
        return "<h2>Fidelity scorecard</h2><p>no scorecard recorded</p>"
    status = (
        '<span class="ok">PASS</span>' if card["passed"]
        else '<span class="fail">FAIL</span>'
    )
    rows = []
    for entry in card["entries"]:
        value, passed = entry["value"], entry["passed"]
        if isinstance(value, (int, float)):
            shown = f"{value:.4f}"
            meter = _meter(value, entry["low"], entry["high"])
        else:
            # An unscorable entry (e.g. a degraded stage): no band to
            # place it in, so it is out of band whatever it claims.
            shown, meter, passed = html.escape(str(value)), "", False
        rows.append([
            html.escape(entry["name"]),
            html.escape(entry["kind"]),
            shown,
            f"[{entry['low']}, {entry['high']}]",
            meter,
            '<span class="ok">ok</span>' if passed
            else '<span class="fail">out of band</span>',
            html.escape(entry["detail"]),
        ])
    return (
        f"<h2>Fidelity scorecard {status}</h2>"
        + _table(["metric", "kind", "value", "band", "", "status", "detail"],
                 rows, numeric=(2,))
    )


def _section_watchdog(watchdog: Optional[dict]) -> str:
    if not watchdog:
        return "<h2>Watchdog</h2><p>no watchdog summary recorded</p>"
    label = ", ".join(
        f"{k}: {v}" for k, v in watchdog["counts"].items()) or "clean"
    rows = []
    for finding in watchdog["findings"]:
        severity = finding.get("severity", "warning")
        rows.append([
            f'<span class="{html.escape(severity)}">{html.escape(severity)}</span>',
            html.escape(finding.get("check", "")),
            html.escape(finding.get("subject", "")),
            html.escape(str(finding.get("iteration", ""))),
            html.escape(finding.get("message", "")),
        ])
    body = (
        _table(["severity", "check", "subject", "iteration", "message"], rows)
        if rows else '<p class="ok">no findings — crawl looked healthy</p>'
    )
    return f"<h2>Watchdog ({html.escape(label)})</h2>" + body


def _section_stages(stages: List[dict]) -> str:
    if not stages:
        return ""
    rows = [
        [
            html.escape(stage["name"]),
            f"{stage['sim_seconds']:,.1f}",
            f"{stage['wall_seconds']:.3f}",
            str(stage["spans"]),
        ]
        for stage in stages
    ]
    return "<h2>Stage durations</h2>" + _table(
        ["stage", "sim s", "wall s", "spans"], rows, numeric=(1, 2, 3)
    )


def _section_crawl(crawl: dict) -> str:
    if not crawl["by_marketplace"]:
        return ""
    rows = [
        [html.escape(name)] + [
            str(row[key]) for key in
            ("pages_fetched", "offers_found", "offers_parsed", "errors")
        ]
        for name, row in crawl["by_marketplace"].items()
    ]
    return "<h2>Crawl totals (summed over iterations)</h2>" + _table(
        ["marketplace", "pages", "offers found", "offers parsed", "errors"],
        rows, numeric=(1, 2, 3, 4),
    )


def _section_http(http: dict) -> str:
    if not http:
        return ""
    rows = []
    for host, row in http.items():
        rows.append([
            html.escape(host), str(row["requests"]),
            f"{row['p50_sim_seconds']:.3f}", f"{row['p95_sim_seconds']:.3f}",
            f"{row['retry_wait_seconds']:,.1f}",
            f"{row['politeness_wait_seconds']:,.1f}",
        ])
    return "<h2>HTTP client, per host (simulated seconds)</h2>" + _table(
        ["host", "requests", "p50 latency", "p95 latency",
         "retry wait", "politeness wait"],
        rows, numeric=(1, 2, 3, 4, 5),
    )


def _section_profile(profile: Optional[dict]) -> str:
    """Hot stages (by wall time) and memory peaks from ``profile.json``."""
    if not profile:
        return ""
    phases = profile["phases"]
    hot = sorted(phases, key=lambda p: -(p["wall_seconds"] or 0.0))[:10]
    rows = []
    for phase in hot:
        rate = ", ".join(
            f"{key.replace('_per_second', '')}: {value:,.0f}/s"
            for key, value in sorted(phase["throughput"].items())
        )
        rows.append([
            html.escape(phase["name"]),
            f"{phase['wall_seconds'] or 0.0:.3f}",
            f"{phase['sim_seconds'] or 0.0:,.1f}",
            html.escape(rate),
        ])
    sections = ["<h2>Hot stages (profile.json, by wall time)</h2>"]
    if profile["missing_stages"]:
        sections.append(
            '<p class="fail">profile missing analysis stages: '
            f"{html.escape(', '.join(profile['missing_stages']))}</p>"
        )
    sections.append(_table(
        ["phase", "wall s", "sim s", "throughput"], rows, numeric=(1, 2)
    ))
    mem_rows = []
    for phase in sorted(
        phases, key=lambda p: -p["memory"]["peak_bytes"],
    )[:10]:
        memory = phase["memory"]
        mem_rows.append([
            html.escape(phase["name"]),
            f"{memory['peak_bytes'] / 1e6:,.1f}",
            f"{memory['net_bytes'] / 1e6:,.1f}",
            html.escape(memory["top_site"]),
        ])
    if mem_rows:
        label = html.escape(memory_totals_label(profile))
        sections.append(f"<h2>Memory{f' ({label})' if label else ''}</h2>")
        sections.append(_table(
            ["phase", "peak MB", "net MB", "top allocation site"],
            mem_rows, numeric=(1, 2),
        ))
    return "\n".join(sections)


def _section_events(counts: dict) -> str:
    if not counts:
        return "<h2>Events</h2><p>none recorded</p>"
    rows = [[html.escape(kind), str(count)] for kind, count in counts.items()]
    return "<h2>Events by kind</h2>" + _table(["kind", "count"], rows,
                                              numeric=(1,))


def render_health_html(document: dict) -> str:
    """The full dashboard page for one run-dir document
    (:func:`~repro.obs.summary.trace_document`)."""
    sections = [
        _section_header(document),
        _section_scorecard(document["scorecard"]),
        _section_watchdog(document["watchdog"]),
        _section_stages(document["stages"]),
        _section_profile(document["profile"]),
        _section_crawl(document["crawl"]),
        _section_http(document["http"]),
        _section_events(document["events"]),
    ]
    body = "\n".join(section for section in sections if section)
    return (
        "<!doctype html>\n<html><head><meta charset=\"utf-8\">"
        f"<title>repro health</title><style>{_CSS}</style></head>"
        f"<body>\n{body}\n</body></html>\n"
    )


# ---------------------------------------------------------------------------
# fleet view (cross-run registry)
# ---------------------------------------------------------------------------

FLEET_FILENAME = "fleet.html"


def _fleet_runs_section(runs) -> str:
    if not runs:
        return "<h2>Runs</h2><p>no runs registered</p>"
    rows = []
    for run in runs:
        passed = run.scorecard_passed
        status = (
            '<span class="muted">—</span>' if passed is None
            else '<span class="ok">PASS</span>' if passed
            else '<span class="fail">FAIL</span>'
        )
        rows.append([
            str(run.seq),
            html.escape(run.run_id),
            html.escape(str(run.seed)),
            html.escape(run.config_hash),
            html.escape(run.chaos or "off"),
            html.escape(run.git or ""),
            status,
            html.escape(run.ingested_at),
        ])
    return "<h2>Runs (ingestion order)</h2>" + _table(
        ["seq", "run id", "seed", "config", "chaos", "git",
         "scorecard", "ingested at"],
        rows, numeric=(0,),
    )


def _fleet_trend_section(title: str, series_list) -> str:
    if not series_list:
        return ""
    from repro.obs.trends import mad, median, sparkline

    rows = []
    for series in series_list:
        values = series.values
        rows.append([
            html.escape(series.name),
            str(series.n),
            f"{min(values):g}",
            f"{median(values):g}",
            f"{mad(values):g}",
            f"{series.latest:g}",
            f"{series.delta:+g}",
            f'<span class="spark">{html.escape(sparkline(values))}</span>',
        ])
    return f"<h2>{html.escape(title)}</h2>" + _table(
        ["metric", "n", "min", "median", "mad", "latest", "delta", "trend"],
        rows, numeric=(1, 2, 3, 4, 5, 6),
    )


def _fleet_alerts_section(report) -> str:
    if report is None:
        return ""
    if not report.fired:
        return (
            "<h2>Alerts</h2><p class=\"ok\">no alerts — latest run "
            f"{html.escape(report.run_id)} is within baseline "
            f"({report.runs_considered} run(s) considered)</p>"
        )
    rows = [
        [
            f'<span class="{html.escape(alert.severity)}">'
            f"{html.escape(alert.severity)}</span>",
            html.escape(alert.rule),
            html.escape(alert.metric),
            f"{alert.value:g}",
            f"{alert.threshold:g}",
            html.escape(alert.message),
        ]
        for alert in report.alerts
    ]
    return (
        f"<h2>Alerts ({len(report.alerts)} fired on "
        f"{html.escape(report.run_id)})</h2>"
        + _table(["severity", "rule", "metric", "value", "threshold",
                  "message"], rows, numeric=(3, 4))
    )


def render_fleet_html(runs, series_list, alert_report=None,
                      registry_path: str = "") -> str:
    """The cross-run dashboard: the run roster, sparkline trend tables
    over the registry's metric series (deterministic series first,
    machine-dependent wall/memory series separately), and the latest
    alert evaluation.  Self-contained like the single-run page."""
    deterministic = [s for s in series_list if not s.machine_dependent]
    machine = [s for s in series_list if s.machine_dependent]
    title = "Fleet view"
    if registry_path:
        title += f": {html.escape(registry_path)}"
    sections = [
        f"<h1>{title}</h1>",
        f'<p class="muted">{len(runs)} run(s), '
        f"{len(series_list)} metric series</p>",
        _fleet_alerts_section(alert_report),
        _fleet_runs_section(runs),
        _fleet_trend_section("Trends (deterministic metrics)", deterministic),
        _fleet_trend_section(
            "Trends (machine-dependent: wall clock, memory)", machine),
    ]
    body = "\n".join(section for section in sections if section)
    css = _CSS + ".spark { font-family: monospace; letter-spacing: 1px; }"
    return (
        "<!doctype html>\n<html><head><meta charset=\"utf-8\">"
        f"<title>repro fleet</title><style>{css}</style></head>"
        f"<body>\n{body}\n</body></html>\n"
    )


def health_problems(document: dict) -> List[str]:
    """Every reason the run counts as unhealthy, one line each.

    Checks: scorecard failed, critical watchdog findings, and — when the
    run was profiled — ``profile.json`` missing any of the expected
    analysis stages (surfaced like ``analysis_stage_coverage``).
    """
    problems: List[str] = []
    card = document["scorecard"]
    if card and not card["passed"]:
        failed = [
            entry["name"] for entry in card["entries"] if not entry["passed"]
        ]
        problems.append(
            "scorecard failed"
            + (f" ({', '.join(failed)})" if failed else "")
        )
    watchdog, profile = document["watchdog"], document["profile"]
    critical = watchdog and watchdog["counts"].get("critical")
    if critical:
        problems.append(f"watchdog reported {critical} critical finding(s)")
    missing = profile and profile["missing_stages"]
    if missing:
        problems.append(
            "profile.json missing analysis stage(s): " + ", ".join(missing)
        )
    return problems


__all__ = [
    "FLEET_FILENAME",
    "REPORT_FILENAME",
    "health_problems",
    "render_fleet_html",
    "render_health_html",
]
