"""The run-dir document, and its rendering for ``repro trace <run-dir>``.

:func:`trace_document` is the only code that reads a telemetry
directory's artifacts (manifest.json / metrics.json / trace.jsonl /
events.jsonl / scorecard.json / profile.json, any subset, loaded through
:class:`~repro.obs.rundir.RunDir`).  ``repro trace --json`` prints the
document and the run registry stores it; :func:`render_trace_summary`,
:mod:`repro.obs.report_html` and :mod:`repro.obs.diff` are pure
formatters over it.  The text summary shows the per-stage time summary,
per-host HTTP latency quantiles and retry/politeness overhead, watchdog
and scorecard status, and event and crawl-error breakdowns.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.obs.metrics import exported_histogram_quantile
from repro.obs.prof import profile_stage_coverage
from repro.obs.rundir import RunDir
from repro.obs.schemas import TRACE_DOC_SCHEMA, config_hash

_Labels = Tuple[Tuple[str, str], ...]


def _format_table(headers: List[str], rows: List[List[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        )
    return "\n".join(lines)


def _stage_rows(stages: List[dict]) -> str:
    rows = []
    for stage in stages:
        rows.append([
            stage["name"],
            f"{stage['sim_seconds']:,.1f}",
            f"{stage['wall_seconds']:.3f}",
            str(stage["spans"]),
        ])
    return _format_table(["stage", "sim s", "wall s", "spans"], rows)


def _http_section(http: Dict[str, dict]) -> Optional[str]:
    """Per-host request counts, p50/p95 sim latency, and the retry /
    politeness wait totals."""
    if not http:
        return None
    rows = []
    for host, row in http.items():
        rows.append([
            host, str(row["requests"]),
            f"{row['p50_sim_seconds']:.3f}", f"{row['p95_sim_seconds']:.3f}",
            f"{row['retry_wait_seconds']:,.1f}",
            f"{row['politeness_wait_seconds']:,.1f}",
        ])
    return (
        "http client, per host (sim seconds):\n"
        + _format_table(
            ["host", "requests", "p50", "p95", "retry wait", "polite wait"],
            rows,
        )
    )


def memory_totals_label(profile: dict) -> str:
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


def _profile_sections(profile: Optional[dict]) -> List[str]:
    """"hot stages" and "memory peaks", when the run was profiled
    (``repro run --profile``)."""
    if not profile:
        return []
    phases = profile["phases"]
    sections: List[str] = []
    hot = sorted(phases, key=lambda p: -(p["wall_seconds"] or 0.0))[:8]
    if hot:
        rows = []
        for phase in hot:
            rate = ", ".join(
                f"{key.replace('_per_second', '')} {value:,.0f}/s"
                for key, value in sorted(phase["throughput"].items())
            )
            rows.append([
                phase["name"],
                f"{phase['wall_seconds'] or 0.0:.3f}",
                f"{phase['sim_seconds'] or 0.0:,.1f}",
                rate,
            ])
        sections.append(
            "hot stages (profile.json, by wall time):\n"
            + _format_table(["phase", "wall s", "sim s", "throughput"], rows)
        )
    by_peak = sorted(phases, key=lambda p: -p["memory"]["peak_bytes"])[:8]
    mem_rows = []
    for phase in by_peak:
        memory = phase["memory"]
        if not memory["peak_bytes"]:
            continue
        mem_rows.append([
            phase["name"],
            f"{memory['peak_bytes'] / 1e6:,.1f}",
            f"{memory['net_bytes'] / 1e6:,.1f}",
            memory["top_site"],
        ])
    if mem_rows:
        label = memory_totals_label(profile)
        sections.append(
            f"memory peaks{f' ({label})' if label else ''}:\n"
            + _format_table(
                ["phase", "peak MB", "net MB", "top allocation site"],
                mem_rows,
            )
        )
    return sections


def _watchdog_section(watchdog: Optional[dict]) -> Optional[str]:
    if watchdog is None:
        return None
    findings = watchdog["findings"]
    if not findings:
        return "watchdog: no findings"
    label = ", ".join(f"{k}={v}" for k, v in watchdog["counts"].items())
    rows = [
        [
            finding.get("severity", ""),
            finding.get("check", ""),
            finding.get("subject", ""),
            str(finding.get("iteration", "")),
            finding.get("message", ""),
        ]
        for finding in findings
    ]
    return (
        f"watchdog findings ({label}):\n"
        + _format_table(
            ["severity", "check", "subject", "iter", "message"], rows
        )
    )


def _scorecard_section(card: Optional[dict]) -> Optional[str]:
    if not card:
        return None
    status = "PASS" if card["passed"] else "FAIL"
    failed = [entry for entry in card["entries"] if not entry["passed"]]
    lines = [
        f"fidelity scorecard: {status} "
        f"({card['n_entries']} metrics, {len(failed)} out of band)"
    ]
    for entry in failed:
        lines.append(
            f"  {entry['name']}: {entry['value']} outside "
            f"[{entry['low']}, {entry['high']}]"
        )
    return "\n".join(lines)


def _contracts_section(contracts: Optional[dict]) -> Optional[str]:
    if not contracts:
        return None
    lines = []
    validation = contracts.get("validation")
    if validation:
        lines.append(
            "contracts: "
            f"{sum((validation.get('checked') or {}).values())} checked, "
            f"{validation.get('repaired', 0)} repaired, "
            f"{validation.get('degraded', 0)} degraded, "
            f"{validation.get('quarantined', 0)} quarantined "
            f"(coverage {validation.get('coverage', 1.0):.4f})"
        )
    quarantine = contracts.get("quarantine")
    if quarantine and quarantine.get("by_rule"):
        for rule, count in sorted(quarantine["by_rule"].items()):
            lines.append(f"  quarantined {rule}: {count}")
    return "\n".join(lines) if lines else None


def _archive_section(archive: Optional[dict]) -> Optional[str]:
    if not archive:
        return None
    lines = [
        "crawl archive: "
        f"{archive.get('exchanges_total', 0)} exchanges "
        f"({archive.get('outcomes_total', 0)} outcomes), "
        f"{archive.get('blobs_total', 0)} unique bodies, "
        f"{archive.get('bytes_total', 0):,} bytes, "
        f"dedup ratio {archive.get('dedup_ratio', 0.0):.3f}"
    ]
    if archive.get("dir"):
        lines.append(f"  dir: {archive['dir']}")
    if archive.get("chain_sha256"):
        lines.append(f"  chain: {archive['chain_sha256']}")
    return "\n".join(lines)


def _stage_failures_section(failures: List[dict]) -> Optional[str]:
    if not failures:
        return None
    rows = [
        [
            failure.get("stage", ""),
            failure.get("kind", ""),
            str(failure.get("attempts", 1)),
            failure.get("disposition", ""),
            failure.get("detail", ""),
        ]
        for failure in failures
    ]
    return (
        f"stage failures ({len(failures)} degraded):\n"
        + _format_table(
            ["stage", "kind", "attempts", "disposition", "detail"], rows
        )
    )


def _series_name(name: str, labels: _Labels) -> str:
    """One counter/gauge series as ``repro diff`` prints it:
    ``name{k=v,...}``, or the bare name when it has no labels."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def _http_table(run: RunDir,
                scalars: Dict[Tuple[str, _Labels], float]) -> Dict[str, dict]:
    """Per-host request counts, latency quantiles, and the retry /
    politeness wait totals the :class:`~repro.web.client.ClientStats`
    accumulate."""
    latency = run.histogram_series("http_request_sim_seconds")
    waits: Dict[str, List[float]] = {}
    for (name, labels), value in scalars.items():
        if name not in ("http_retry_wait_seconds_total",
                        "http_politeness_wait_seconds_total"):
            continue
        host = dict(labels).get("host", "")
        slot = waits.setdefault(host, [0.0, 0.0])
        slot[0 if name.startswith("http_retry") else 1] += value
    series_by_host = {
        (s.get("labels") or {}).get("host", ""): s for s in latency
    }
    table: Dict[str, dict] = {}
    for host in sorted(set(series_by_host) | set(waits)):
        series = series_by_host.get(host)
        retry, polite = waits.get(host, [0.0, 0.0])
        table[host] = {
            "requests": int(series.get("count", 0)) if series else 0,
            "p50_sim_seconds": round(
                exported_histogram_quantile(series, 0.5), 6) if series else 0.0,
            "p95_sim_seconds": round(
                exported_histogram_quantile(series, 0.95), 6) if series else 0.0,
            "retry_wait_seconds": round(retry, 6),
            "politeness_wait_seconds": round(polite, 6),
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


def render_trace_summary(document: dict) -> str:
    """The full ``repro trace`` report for one :func:`trace_document`."""
    sections: List[str] = []
    run = document["run"]

    if run["manifest_schema"] is not None:
        header = [f"run manifest: schema={run['manifest_schema']}"]
        if run["git"]:
            header.append(f"git={run['git']}")
        if run["config"]:
            header.append(
                "config: " + ", ".join(
                    f"{key}={value}" for key, value in run["config"].items()
                )
            )
        header.append(
            f"simulated_seconds={run['simulated_seconds'] or 0.0:,.1f}"
        )
        sections.append("\n".join(header))

    if document["stages"]:
        sections.append(
            "per-stage summary:\n" + _stage_rows(document["stages"]))
    else:
        sections.append(f"no trace data found in {document['path']}")

    for section in (
        _scorecard_section(document["scorecard"]),
        _stage_failures_section(document["stage_failures"]),
        _contracts_section(document["contracts"]),
        _archive_section(document["archive"]),
        *_profile_sections(document["profile"]),
        _watchdog_section(document["watchdog"]),
        _http_section(document["http"]),
    ):
        if section:
            sections.append(section)

    counts = document["events"]
    if counts:
        rows = [[kind, str(count)] for kind, count in counts.items()]
        sections.append("events by kind:\n" + _format_table(["kind", "count"], rows))
    else:
        sections.append("events by kind: none recorded")

    by_marketplace = document["crawl"]["by_marketplace"]
    if by_marketplace:
        rows = [
            [name, str(row["pages_fetched"]), str(row["offers_parsed"]),
             str(row["errors"])]
            for name, row in by_marketplace.items()
        ]
        sections.append(
            "crawl totals (summed over iterations):\n"
            + _format_table(["marketplace", "pages", "offers", "errors"], rows)
        )

    return "\n\n".join(sections)


__all__ = ["render_trace_summary", "trace_document"]
