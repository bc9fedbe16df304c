"""Observability: metrics, tracing, structured events, run manifests.

The pipeline is a five-month simulated measurement campaign; this
package makes it inspectable end to end:

* :mod:`repro.obs.metrics` — labeled counters / gauges / histograms
  with a JSON snapshot (``http_requests_total{host,status}``, ...);
* :mod:`repro.obs.trace` — nested spans charged to both the simulated
  clock and wall time, exported as JSONL;
* :mod:`repro.obs.events` — the structured crawl-anomaly log (JSONL);
* :mod:`repro.obs.manifest` — the per-run manifest that makes two runs
  diffable (config, git revision, stage durations, error counts);
* :mod:`repro.obs.telemetry` — the facade threading all of the above
  through the pipeline, with a zero-cost disabled mode;
* :mod:`repro.obs.summary` — the run-dir document, the report sections
  built from it, and the text formatter (``repro trace <run-dir>``);
* :mod:`repro.obs.quality` — the end-of-run fidelity scorecard scored
  against ground truth and the paper-shape calibration targets;
* :mod:`repro.obs.watchdog` — in-flight crawl-health monitors
  (coverage, error/ban rates, stalls);
* :mod:`repro.obs.rundir` — defensive loading of telemetry dirs;
* :mod:`repro.obs.diff` — run-to-run regression diffing;
* :mod:`repro.obs.report_html` — the HTML formatter: the single-file
  health dashboard and the fleet view;
* :mod:`repro.obs.prof` — the ``--profile`` performance profiler, an
  observer of the tracer's phase and stage spans (their wall and sim
  time, plus memory and throughput → profile.json);
* :mod:`repro.obs.bench` — the ``repro bench`` harness behind the
  committed ``BENCH_pipeline.json`` perf baseline;
* :mod:`repro.obs.schemas` — the single registry of schema ids every
  emitted JSON artifact carries;
* :mod:`repro.obs.registry` — the cross-run SQLite run registry behind
  ``repro runs ingest/list/show``;
* :mod:`repro.obs.trends` — per-metric trend series with median/MAD
  baselines across registered runs;
* :mod:`repro.obs.alerts` — deterministic anomaly rules over the
  registry (``repro runs alerts`` → ``alerts.json``, exit 1 on fire).
"""

from repro.obs.alerts import (
    ALERTS_FILENAME,
    Alert,
    AlertNote,
    AlertReport,
    evaluate_alerts,
    write_alerts,
)

from repro.obs.bench import (
    BENCH_FILENAME,
    BENCH_SCHEMA,
    BenchComparison,
    BenchError,
    compare_bench,
    load_baseline,
    run_bench,
    write_bench,
)

from repro.obs.diff import DiffLine, RunDiff, diff_runs
from repro.obs.events import Event, EventLog, NullEventLog
from repro.obs.manifest import (
    MANIFEST_FILENAME,
    build_manifest,
    git_describe,
    write_manifest,
    write_telemetry_dir,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.quality import (
    SCORECARD_FILENAME,
    Scorecard,
    ScoreEntry,
    compute_scorecard,
    load_scorecard,
    write_scorecard,
)
from repro.obs.prof import (
    NULL_PROFILER,
    PROFILE_FILENAME,
    PROFILE_SCHEMA,
    NullProfiler,
    StageProfiler,
    deterministic_view,
    load_profile,
    profile_stage_coverage,
)
from repro.obs.registry import (
    IngestResult,
    REGISTRY_FILENAME,
    RegistryError,
    RunRegistry,
    RunRow,
    metrics_from_document,
)
from repro.obs.report_html import (
    health_problems,
    render_fleet_html,
    render_health_html,
)
from repro.obs.rundir import RunDir, TelemetryDirError
from repro.obs.schemas import (
    ALERTS_SCHEMA,
    ARTIFACT_SCHEMAS,
    KNOWN_SCHEMAS,
    MANIFEST_SCHEMA,
    METRICS_SCHEMA,
    REGISTRY_SCHEMA,
    SCORECARD_SCHEMA,
    SchemaError,
    TRACE_DOC_SCHEMA,
    TRENDS_SCHEMA,
    check_artifact,
    check_schema,
    config_hash,
)
from repro.obs.summary import render_trace_summary, trace_document
from repro.obs.trends import (
    TrendPoint,
    TrendSeries,
    compute_trends,
    render_trends_text,
    sparkline,
    trends_document,
)
from repro.obs.telemetry import (
    EVENTS_FILENAME,
    METRICS_FILENAME,
    NULL_TELEMETRY,
    TRACE_FILENAME,
    Telemetry,
    configure_logging,
)
from repro.obs.trace import NullTracer, SpanRecord, SpanTracer, stage_summary
from repro.obs.watchdog import CrawlWatchdog, Finding

__all__ = [
    "ALERTS_FILENAME",
    "ALERTS_SCHEMA",
    "ARTIFACT_SCHEMAS",
    "Alert",
    "AlertNote",
    "AlertReport",
    "BENCH_FILENAME",
    "BENCH_SCHEMA",
    "IngestResult",
    "KNOWN_SCHEMAS",
    "MANIFEST_SCHEMA",
    "METRICS_SCHEMA",
    "REGISTRY_FILENAME",
    "REGISTRY_SCHEMA",
    "RegistryError",
    "RunRegistry",
    "RunRow",
    "SCORECARD_SCHEMA",
    "SchemaError",
    "TRACE_DOC_SCHEMA",
    "TRENDS_SCHEMA",
    "TrendPoint",
    "TrendSeries",
    "check_artifact",
    "check_schema",
    "compute_trends",
    "config_hash",
    "evaluate_alerts",
    "metrics_from_document",
    "render_fleet_html",
    "render_trends_text",
    "sparkline",
    "trace_document",
    "trends_document",
    "write_alerts",
    "BenchComparison",
    "BenchError",
    "Counter",
    "CrawlWatchdog",
    "DiffLine",
    "Event",
    "EventLog",
    "EVENTS_FILENAME",
    "Finding",
    "Gauge",
    "Histogram",
    "MANIFEST_FILENAME",
    "METRICS_FILENAME",
    "MetricError",
    "MetricsRegistry",
    "NULL_PROFILER",
    "NULL_TELEMETRY",
    "NullEventLog",
    "NullProfiler",
    "NullRegistry",
    "NullTracer",
    "PROFILE_FILENAME",
    "PROFILE_SCHEMA",
    "RunDiff",
    "RunDir",
    "SCORECARD_FILENAME",
    "StageProfiler",
    "Scorecard",
    "ScoreEntry",
    "SpanRecord",
    "SpanTracer",
    "TRACE_FILENAME",
    "Telemetry",
    "TelemetryDirError",
    "build_manifest",
    "compare_bench",
    "compute_scorecard",
    "configure_logging",
    "deterministic_view",
    "diff_runs",
    "git_describe",
    "health_problems",
    "load_baseline",
    "load_profile",
    "load_scorecard",
    "profile_stage_coverage",
    "render_health_html",
    "render_trace_summary",
    "run_bench",
    "stage_summary",
    "write_bench",
    "write_manifest",
    "write_scorecard",
    "write_telemetry_dir",
]
