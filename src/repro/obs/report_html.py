"""The HTML formatter: ``repro health DIR`` and the fleet view.

:func:`format_html` turns a list of :class:`~repro.obs.summary.Section`
into a self-contained page: a heading, a paragraph per text line and a
table per section, each row coloured by its status.  It escapes every
title, line and cell exactly once and knows no section by name, so the
page shows the same tables as the text reports.  Styling is inline
CSS; no JavaScript, no external assets, so the file can be archived as
a CI artifact and opened anywhere.
"""

from __future__ import annotations

import html
from typing import List, Optional, Sequence

from repro.obs.alerts import alerts_section
from repro.obs.summary import Section, trace_sections
from repro.obs.trends import runs_section, trend_sections

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
"""


def _table(section: Section) -> str:
    head = "".join(f"<th>{html.escape(h)}</th>" for h in section.headers)
    body: List[str] = []
    for index, row in enumerate(section.rows):
        status = section.status[index] if section.status else ""
        cells = "".join(
            f'<td class="num">{html.escape(cell)}</td>'
            if column in section.numeric else f"<td>{html.escape(cell)}</td>"
            for column, cell in enumerate(row)
        )
        opening = f'<tr class="{html.escape(status)}">' if status else "<tr>"
        body.append(f"{opening}{cells}</tr>")
    return (
        f"<table><thead><tr>{head}</tr></thead>"
        f"<tbody>{''.join(body)}</tbody></table>"
    )


def format_html(title: str, sections: Sequence[Section]) -> str:
    """One page: ``title`` as its heading, then every section."""
    body = [f"<h1>{html.escape(title)}</h1>"]
    for section in sections:
        heading = section.title[:1].upper() + section.title[1:]
        body.append(f"<h2>{html.escape(heading)}</h2>")
        body.extend(f"<p>{html.escape(line)}</p>" for line in section.lines)
        if section.rows:
            body.append(_table(section))
    return (
        "<!doctype html>\n<html><head><meta charset=\"utf-8\">"
        f"<title>{html.escape(title)}</title><style>{_CSS}</style></head>"
        "<body>\n" + "\n".join(body) + "\n</body></html>\n"
    )


def render_health_html(document: dict) -> str:
    """The dashboard page for one run-dir document
    (:func:`~repro.obs.summary.trace_document`)."""
    return format_html(f"Run health: {document['path']}",
                       trace_sections(document))


def render_fleet_html(runs, series_list, alerts: Optional[dict] = None,
                      registry_path: str = "") -> str:
    """The cross-run dashboard: the latest alert evaluation (an
    ``alerts.json`` document), the run roster, and the trend tables
    over the registry's metric series.  Self-contained like the
    single-run page."""
    sections = [] if alerts is None else [alerts_section(alerts)]
    sections.append(runs_section(runs))
    sections.extend(trend_sections(series_list))
    title = f"Fleet view: {registry_path}" if registry_path else "Fleet view"
    return format_html(title, sections)


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
    "REPORT_FILENAME",
    "format_html",
    "health_problems",
    "render_fleet_html",
    "render_health_html",
]
