"""The run-dir document, its report sections, and the text formatter.

:func:`trace_document` is the only code that reads a telemetry
directory's artifacts (manifest.json / metrics.json / trace.jsonl /
events.jsonl / scorecard.json / profile.json, any subset, loaded through
:class:`~repro.obs.rundir.RunDir`).  ``repro trace --json`` prints the
document and the run registry stores it; :mod:`repro.obs.diff` compares
two of them.

:func:`trace_sections` builds every table of the run report from the
document, once: header, scorecard, stage failures, contracts, archive,
stages, hot stages, memory peaks, watchdog, HTTP, events and crawl.  A
:class:`Section` holds plain strings, so a format is only a formatter:
:func:`format_text` prints ``repro trace`` and
:func:`repro.obs.report_html.format_html` writes ``health.html``.  The
fleet view's sections (:mod:`repro.obs.trends`, :mod:`repro.obs.alerts`)
go through the same two formatters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.metrics import exported_histogram_quantile
from repro.obs.prof import profile_stage_coverage
from repro.obs.rundir import RunDir
from repro.obs.schemas import TRACE_DOC_SCHEMA, config_hash

_Labels = Tuple[Tuple[str, str], ...]

#: Rows of the hot-stages and memory-peaks tables.
_TOP_PHASES = 10


@dataclass
class Section:
    """One table of a report, before formatting.

    ``lines`` are free text under the title; ``rows`` hold one string
    per header.  ``numeric`` names the columns aligned right, and
    ``status`` is empty or gives each row a tag (``ok``, ``fail``, a
    severity such as ``warning`` or ``critical``, or ``""``), which the
    HTML page shows as the row's colour.
    """

    title: str
    lines: List[str] = field(default_factory=list)
    headers: List[str] = field(default_factory=list)
    rows: List[List[str]] = field(default_factory=list)
    numeric: Tuple[int, ...] = ()
    status: List[str] = field(default_factory=list)


def format_text(sections: Sequence[Section]) -> str:
    """Sections as plain text: each title (with a colon when a table
    follows), its lines indented two spaces, then its table; a blank
    line between sections."""
    blocks = []
    for section in sections:
        title = f"{section.title}:" if section.rows else section.title
        block = [title] + [f"  {line}" for line in section.lines]
        if section.rows:
            block.append(_format_table(section))
        blocks.append("\n".join(block))
    return "\n\n".join(blocks)


def _format_table(section: Section) -> str:
    widths = [len(header) for header in section.headers]
    for row in section.rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(
            cell.rjust(widths[index]) if index in section.numeric
            else cell.ljust(widths[index])
            for index, cell in enumerate(cells)
        ).rstrip()

    return "\n".join([
        line(section.headers),
        "  ".join("-" * width for width in widths),
        *(line(row) for row in section.rows),
    ])


def _series_name(name: str, labels: _Labels) -> str:
    """One counter/gauge series as ``repro diff`` prints it:
    ``name{k=v,...}``, or the bare name when it has no labels."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def _http_table(run: RunDir,
                scalars: Dict[Tuple[str, _Labels], float]) -> Dict[str, dict]:
    """Per-host request counts, latency quantiles, and the retry wait
    totals of the client's ``http_retry_wait_seconds_total``."""
    latency = run.histogram_series("http_request_sim_seconds")
    waits: Dict[str, float] = {}
    for (name, labels), value in scalars.items():
        if name != "http_retry_wait_seconds_total":
            continue
        host = dict(labels).get("host", "")
        waits[host] = waits.get(host, 0.0) + value
    series_by_host = {
        (s.get("labels") or {}).get("host", ""): s for s in latency
    }
    table: Dict[str, dict] = {}
    for host in sorted(set(series_by_host) | set(waits)):
        series = series_by_host.get(host)
        table[host] = {
            "requests": int(series.get("count", 0)) if series else 0,
            "p50_sim_seconds": round(
                exported_histogram_quantile(series, 0.5), 6) if series else 0.0,
            "p95_sim_seconds": round(
                exported_histogram_quantile(series, 0.95), 6) if series else 0.0,
            "retry_wait_seconds": round(waits.get(host, 0.0), 6),
        }
    return table


def _crawl_totals(manifest: Optional[dict]) -> dict:
    """Summed per-marketplace crawl counters plus grand totals."""
    reports = ((manifest or {}).get("crawl") or {}).get("reports") or []
    by_marketplace: Dict[str, Dict[str, int]] = {}
    for report in reports:
        row = by_marketplace.setdefault(report.get("marketplace", ""), {
            "pages_fetched": 0, "offers_found": 0,
            "offers_parsed": 0, "sellers_fetched": 0, "errors": 0,
        })
        for key in row:
            row[key] += int(report.get(key, 0))
    pages = sum(r["pages_fetched"] for r in by_marketplace.values())
    errors = sum(r["errors"] for r in by_marketplace.values())
    return {
        "by_marketplace": dict(sorted(by_marketplace.items())),
        "pages_total": pages,
        "errors_total": errors,
        "error_rate": round(errors / pages, 6) if pages else 0.0,
    }


def _profile_phase(phase: dict) -> dict:
    memory = phase.get("memory") or {}
    top = memory.get("top_allocations") or []
    return {
        "name": phase.get("name"),
        "kind": phase.get("kind"),
        "wall_seconds": phase.get("wall_seconds"),
        "sim_seconds": phase.get("sim_seconds"),
        "throughput": phase.get("throughput") or {},
        "memory": {
            "peak_bytes": memory.get("peak_bytes", 0),
            "net_bytes": memory.get("net_bytes", 0),
            "top_site": top[0]["site"] if top else "",
        },
    }


def trace_document(source: Union[str, RunDir]) -> dict:
    """The run-dir document: one stable, schema-versioned JSON view over
    a telemetry directory (``repro trace --json``).

    Raises :class:`~repro.obs.rundir.TelemetryDirError` on unusable
    directories.  Every ``repro trace``/``health``/``diff`` rendering and
    the cross-run :class:`~repro.obs.registry.RunRegistry` ingester
    consume this document, so they cannot drift apart, and a document
    loaded back from JSON renders exactly like the directory.  Keys are
    sorted at serialization time and derived floats are rounded, so two
    loads of the same directory produce byte-identical output.
    Sections whose artifacts are absent come out as ``None`` rather than
    being omitted.
    """
    run = source if isinstance(source, RunDir) else RunDir.load(source)
    manifest = run.manifest or {}
    config = manifest.get("config") or {}
    scalars = run.scalar_metrics()

    scorecard = None
    if run.scorecard:
        scorecard = {
            "passed": bool(run.scorecard.get("passed")),
            "n_entries": run.scorecard.get("n_entries", 0),
            "n_failed": run.scorecard.get("n_failed", 0),
            "entries": [
                {
                    "name": entry.get("name"),
                    "kind": entry.get("kind"),
                    "value": entry.get("value"),
                    "low": entry.get("low"),
                    "high": entry.get("high"),
                    "passed": entry.get("passed"),
                    "detail": entry.get("detail", ""),
                }
                for entry in run.scorecard.get("entries", [])
            ],
        }

    watchdog = run.watchdog_summary()
    watchdog_doc = None
    if watchdog is not None:
        counts = watchdog.get("counts") or {}
        findings = watchdog.get("findings") or []
        watchdog_doc = {
            "counts": dict(sorted(counts.items())),
            "findings_total": len(findings),
            "findings": findings,
        }

    profile_doc = None
    if run.profile:
        totals = run.profile.get("totals") or {}
        memory = totals.get("memory") or {}
        profile_doc = {
            "phases": [
                _profile_phase(phase)
                for phase in run.profile.get("phases") or []
            ],
            "totals": {
                "sim_seconds": totals.get("sim_seconds"),
                "wall_seconds": totals.get("wall_seconds"),
                "tracemalloc_peak_bytes": memory.get("tracemalloc_peak_bytes"),
                "rss_max_kb": memory.get("rss_max_kb"),
            },
            "missing_stages": profile_stage_coverage(run.profile),
        }

    return {
        "schema": TRACE_DOC_SCHEMA,
        "path": run.path,
        "run": {
            "manifest_schema": manifest.get("schema"),
            "git": manifest.get("git"),
            "python": manifest.get("python"),
            "seed": manifest.get("seed", config.get("seed")),
            "config": dict(sorted(config.items())),
            "config_hash": manifest.get("config_hash")
            or config_hash(config),
            "simulated_seconds": manifest.get("simulated_seconds"),
            "dataset": manifest.get("dataset") or {},
        },
        "stages": [
            {
                "name": stage.get("name"),
                "sim_seconds": stage.get("sim_seconds", 0.0),
                "wall_seconds": stage.get("wall_seconds", 0.0),
                "spans": stage.get("spans", 0),
            }
            for stage in run.stages
        ],
        "scorecard": scorecard,
        "watchdog": watchdog_doc,
        "contracts": manifest.get("contracts"),
        "stage_failures": manifest.get("stage_failures") or [],
        "archive": manifest.get("archive"),
        "profile": profile_doc,
        "crawl": _crawl_totals(manifest),
        "events": run.event_kind_counts(),
        "warning_events": run.event_kind_counts(min_level="warning"),
        "http": _http_table(run, scalars),
        "metrics": {
            _series_name(name, labels): value
            for (name, labels), value in sorted(scalars.items())
        },
    }


# ---------------------------------------------------------------------------
# the run report's sections
# ---------------------------------------------------------------------------

def _header_section(document: dict) -> Optional[Section]:
    run = document["run"]
    if run["manifest_schema"] is None:
        return None
    lines = []
    if run["git"]:
        lines.append(f"git={run['git']}")
    if run["config"]:
        lines.append("config: " + ", ".join(
            f"{key}={value}" for key, value in run["config"].items()))
    lines.append(f"simulated_seconds={run['simulated_seconds'] or 0.0:,.1f}")
    return Section(f"run manifest: schema={run['manifest_schema']}", lines)


def _scorecard_section(card: Optional[dict]) -> Optional[Section]:
    if not card:
        return None
    rows, status = [], []
    for entry in card["entries"]:
        value = entry["value"]
        # An unscorable entry (a degraded stage's null or placeholder)
        # has no place in its band: out of band whatever it claims.
        scored = isinstance(value, (int, float))
        passed = scored and entry["passed"]
        rows.append([
            str(entry["name"]),
            str(entry["kind"]),
            f"{value:.4f}" if scored else str(value),
            f"[{entry['low']}, {entry['high']}]",
            "ok" if passed else "out of band",
            str(entry["detail"]),
        ])
        status.append("ok" if passed else "fail")
    verdict = "PASS" if card["passed"] else "FAIL"
    return Section(
        f"fidelity scorecard: {verdict} ({card['n_entries']} metrics, "
        f"{status.count('fail')} out of band)",
        headers=["metric", "kind", "value", "band", "status", "detail"],
        rows=rows, numeric=(2,), status=status,
    )


def _stage_failures_section(failures: List[dict]) -> Optional[Section]:
    if not failures:
        return None
    return Section(
        f"stage failures ({len(failures)} degraded)",
        headers=["stage", "kind", "attempts", "disposition", "detail"],
        rows=[
            [str(failure.get("stage", "")), str(failure.get("kind", "")),
             str(failure.get("attempts", 1)),
             str(failure.get("disposition", "")),
             str(failure.get("detail", ""))]
            for failure in failures
        ],
        numeric=(2,), status=["fail"] * len(failures),
    )


def _contracts_section(contracts: Optional[dict]) -> Optional[Section]:
    if not contracts:
        return None
    quarantine = contracts.get("quarantine") or {}
    lines = [
        f"quarantined {rule}: {count}"
        for rule, count in sorted((quarantine.get("by_rule") or {}).items())
    ]
    validation = contracts.get("validation")
    if not validation:
        return Section("contracts", lines) if lines else None
    return Section(
        "contracts: "
        f"{sum((validation.get('checked') or {}).values())} checked, "
        f"{validation.get('repaired', 0)} repaired, "
        f"{validation.get('degraded', 0)} degraded, "
        f"{validation.get('quarantined', 0)} quarantined "
        f"(coverage {validation.get('coverage', 1.0):.4f})",
        lines,
    )


def _archive_section(archive: Optional[dict]) -> Optional[Section]:
    if not archive:
        return None
    lines = []
    if archive.get("dir"):
        lines.append(f"dir: {archive['dir']}")
    if archive.get("chain_sha256"):
        lines.append(f"chain: {archive['chain_sha256']}")
    return Section(
        "crawl archive: "
        f"{archive.get('exchanges_total', 0)} exchanges "
        f"({archive.get('outcomes_total', 0)} outcomes), "
        f"{archive.get('blobs_total', 0)} unique bodies, "
        f"{archive.get('bytes_total', 0):,} bytes, "
        f"dedup ratio {archive.get('dedup_ratio', 0.0):.3f}",
        lines,
    )


def _stages_section(document: dict) -> Section:
    if not document["stages"]:
        return Section(f"no trace data found in {document['path']}")
    return Section(
        "per-stage summary",
        headers=["stage", "sim s", "wall s", "spans"],
        rows=[
            [str(stage["name"]), f"{stage['sim_seconds']:,.1f}",
             f"{stage['wall_seconds']:.3f}", str(stage["spans"])]
            for stage in document["stages"]
        ],
        numeric=(1, 2, 3),
    )


def _memory_label(profile: dict) -> str:
    """The run-wide memory high-water marks, e.g. ``tracemalloc peak 1.2
    MB, max RSS 80.0 MB`` (empty when the profile recorded neither)."""
    totals = profile["totals"]
    bits = []
    if totals["tracemalloc_peak_bytes"]:
        bits.append(
            f"tracemalloc peak {totals['tracemalloc_peak_bytes'] / 1e6:,.1f} MB"
        )
    if totals["rss_max_kb"]:
        bits.append(f"max RSS {totals['rss_max_kb'] / 1024:,.1f} MB")
    return ", ".join(bits)


def _profile_sections(profile: Optional[dict]) -> List[Section]:
    """"hot stages" and "memory peaks", when the run was profiled
    (``repro run --profile``)."""
    if not profile:
        return []
    phases = profile["phases"]
    hot = sorted(phases, key=lambda p: -(p["wall_seconds"] or 0.0))
    lines = []
    if profile["missing_stages"]:
        lines.append("profile missing analysis stages: "
                     + ", ".join(profile["missing_stages"]))
    sections = [Section(
        "hot stages (profile.json, by wall time)", lines,
        headers=["phase", "wall s", "sim s", "throughput"],
        rows=[
            [
                str(phase["name"]),
                f"{phase['wall_seconds'] or 0.0:.3f}",
                f"{phase['sim_seconds'] or 0.0:,.1f}",
                ", ".join(
                    f"{key.replace('_per_second', '')} {value:,.0f}/s"
                    for key, value in sorted(phase["throughput"].items())
                ),
            ]
            for phase in hot[:_TOP_PHASES]
        ],
        numeric=(1, 2),
    )]
    peaks = [
        phase for phase in
        sorted(phases, key=lambda p: -p["memory"]["peak_bytes"])
        if phase["memory"]["peak_bytes"]
    ]
    if peaks:
        label = _memory_label(profile)
        sections.append(Section(
            f"memory peaks ({label})" if label else "memory peaks",
            headers=["phase", "peak MB", "net MB", "top allocation site"],
            rows=[
                [
                    str(phase["name"]),
                    f"{phase['memory']['peak_bytes'] / 1e6:,.1f}",
                    f"{phase['memory']['net_bytes'] / 1e6:,.1f}",
                    str(phase["memory"]["top_site"]),
                ]
                for phase in peaks[:_TOP_PHASES]
            ],
            numeric=(1, 2),
        ))
    return sections


def _watchdog_section(watchdog: Optional[dict]) -> Optional[Section]:
    if watchdog is None:
        return None
    findings = watchdog["findings"]
    if not findings:
        return Section("watchdog: no findings")
    label = ", ".join(f"{k}={v}" for k, v in watchdog["counts"].items())
    return Section(
        f"watchdog findings ({label})",
        headers=["severity", "check", "subject", "iteration", "message"],
        rows=[
            [str(finding.get(key, "")) for key in (
                "severity", "check", "subject", "iteration", "message")]
            for finding in findings
        ],
        numeric=(3,),
        status=[str(finding.get("severity", "")) for finding in findings],
    )


def _http_section(http: Dict[str, dict]) -> Optional[Section]:
    """Per-host request counts, p50/p95 sim latency, and the retry wait
    totals."""
    if not http:
        return None
    return Section(
        "http client, per host (sim seconds)",
        headers=["host", "requests", "p50", "p95", "retry wait"],
        rows=[
            [
                host, str(row["requests"]),
                f"{row['p50_sim_seconds']:.3f}",
                f"{row['p95_sim_seconds']:.3f}",
                f"{row['retry_wait_seconds']:,.1f}",
            ]
            for host, row in http.items()
        ],
        numeric=(1, 2, 3, 4),
    )


def _events_section(counts: Dict[str, int]) -> Section:
    if not counts:
        return Section("events by kind: none recorded")
    return Section(
        "events by kind",
        headers=["kind", "count"],
        rows=[[kind, str(count)] for kind, count in counts.items()],
        numeric=(1,),
    )


def _crawl_section(crawl: dict) -> Optional[Section]:
    if not crawl["by_marketplace"]:
        return None
    keys = ("pages_fetched", "offers_found", "offers_parsed", "errors")
    return Section(
        "crawl totals (summed over iterations)",
        headers=["marketplace", "pages", "offers found", "offers parsed",
                 "errors"],
        rows=[
            [name] + [str(row[key]) for key in keys]
            for name, row in crawl["by_marketplace"].items()
        ],
        numeric=(1, 2, 3, 4),
    )


def trace_sections(document: dict) -> List[Section]:
    """Every table of the run report for one :func:`trace_document`, in
    order; a table whose artifact is absent is left out."""
    sections = [
        _header_section(document),
        _scorecard_section(document["scorecard"]),
        _stage_failures_section(document["stage_failures"]),
        _contracts_section(document["contracts"]),
        _archive_section(document["archive"]),
        _stages_section(document),
        *_profile_sections(document["profile"]),
        _watchdog_section(document["watchdog"]),
        _http_section(document["http"]),
        _events_section(document["events"]),
        _crawl_section(document["crawl"]),
    ]
    return [section for section in sections if section is not None]


def render_trace_summary(document: dict) -> str:
    """The full ``repro trace`` report for one :func:`trace_document`."""
    return format_text(trace_sections(document))


__all__ = [
    "Section",
    "format_text",
    "render_trace_summary",
    "trace_document",
    "trace_sections",
]
