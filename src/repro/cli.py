"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``
    Execute the full study (crawl, profile collection, underground) and
    persist the dataset as a segmented store plus run metadata (and the
    fidelity scorecard, when ``--telemetry-out`` made the run score one)
    to a directory that holds no store yet.
``report``
    Load a saved run and render every paper table/figure.
``tables``
    One-shot: run a study and print the report without saving.
``channels``
    Print the Table-9 trading-channel inventory and triage.
``trace``
    Summarize a telemetry directory (``--telemetry-out``): per-stage
    sim/wall durations, events by kind, per-marketplace crawl errors.
    ``--json`` emits the same summary as a stable, schema-versioned
    JSON document (the path scripts and the run registry share).
``diff``
    Compare two telemetry directories and exit nonzero on regressions
    (scorecard drops, new error kinds, coverage losses, sim slowdowns).
``health``
    Render a telemetry directory as a single-file HTML dashboard;
    ``--strict`` fails the command when the run looks unhealthy
    (including a ``profile.json`` that misses analysis stages).
``bench``
    Run the scale-0.02 throughput study N times and write the
    ``BENCH_pipeline.json`` perf baseline; ``--compare BASELINE``
    classifies drift per metric and exits 1 on regression, 2 on a
    corrupt or schema-mismatched baseline.
``replay``
    Re-run extraction + analysis offline from a sealed crawl archive
    (``run --archive-dir``); the outputs are byte-identical to the live
    run's.
``archive verify``
    Re-hash every index and blob in an archive; exit 2 on corruption.
``data verify|stats``
    Inspect the crash-safe segmented dataset store (``run --out``):
    ``verify`` re-hashes every sealed segment against its footer and the
    manifest and exits 2 on any mismatch; ``stats`` prints record
    counts, segment totals, and degradation markers.
``archive diff``
    Per-marketplace offer-page churn between two archived iterations.
``runs ingest|list|show|trends|alerts``
    The cross-run registry: fold completed telemetry directories into an
    append-only SQLite store (idempotent per run), list them, render
    per-metric trend series with median/MAD baselines (``--html`` writes
    the fleet dashboard), and evaluate the deterministic anomaly rules —
    ``alerts`` exits 1 when any rule fires, writing ``alerts.json`` with
    ``--out``.
``serve build|query|bench``
    The serving layer: ``build`` ingests one or more run directories
    into a read-optimized SQLite catalog with a deterministic
    ``catalog.json`` manifest (idempotent: unchanged sources are a
    no-op); ``query`` issues one HTTP request
    against the catalog API and prints the JSON body (exit 1 on an HTTP
    error status, 2 on a missing/corrupt catalog); ``bench`` drives
    thousands of seeded simulated clients through the API and reports
    p50/p95 latency plus the content-hash cache hit rate, writing
    ``BENCH_serve.json`` with ``--out``.
``monitor run|status``
    The supervised continuous-measurement daemon: run the full pipeline
    every ``--interval`` simulated seconds for ``--cycles`` cycles (or
    ``--forever``), recording every cycle in a crash-safe schedule
    ledger, ingesting each success into the state dir's run registry,
    evaluating alerts, and bounding disk with ``--keep-runs`` /
    ``--max-bytes``.  ``status`` renders the state dir's
    ledger/lock/registry/alerts view.

Exit codes, the same for every command:

- 0: success.
- 1: a finding or regression (``diff``, ``health --strict``, ``bench
  --compare``, ``runs alerts``, an HTTP error from ``serve query``), or
  a run dir that ``run``, ``report`` or ``figures`` cannot use.
- 2: an input or argument the command cannot use — a missing or corrupt
  telemetry dir, store, archive, registry, catalog, state dir or bench
  baseline, or an output path the command cannot write (a file where
  an output directory goes, a directory where an output file goes, a
  missing parent where the command does not create one).  Commands
  that work before they write check their output paths first.
  :func:`main` prints the error's one-line message.
- 3: ``--strict-contracts`` refused a record.
- 4: ``monitor run``'s circuit opened (too many consecutive failed
  cycles).
- 130: stopped by SIGTERM/SIGINT; ``run`` leaves the partial dataset
  state on disk with a ``"partial": "interrupted"`` marker in its meta
  file.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import signal
import sys
from typing import List, Optional, Tuple

from repro.analysis import MarketplaceAnatomy
from repro.archive import (
    ArchiveError,
    ArchiveReader,
    ReplayError,
    diff_iterations,
    run_replay,
    study_config_from,
)
from repro.analysis.figures import fig3_outlier, fig5_descriptions, listing_dynamics
from repro.analysis.suite import STAGE_NAMES, AnalysisResults, run_analysis_suite
from repro.contracts import (
    ContractViolationError,
    QuarantineStore,
    StageSupervisor,
)
from repro.core import MeasurementDataset, Study, StudyConfig
from repro.core import reports
from repro.faults import PROFILES
from repro.faults.disk import DiskWriteError
from repro.marketplaces.channels import CHANNELS
from repro.obs import (
    BENCH_FILENAME,
    NULL_TELEMETRY,
    BenchError,
    RegistryError,
    RunRegistry,
    StageProfiler,
    Telemetry,
    TelemetryDirError,
    compare_bench,
    compute_trends,
    configure_logging,
    diff_runs,
    evaluate_alerts,
    health_problems,
    load_baseline,
    render_fleet_html,
    render_health_html,
    render_trace_summary,
    render_trends_text,
    run_bench,
    trace_document,
    trends_document,
    write_alerts,
    write_bench,
    write_scorecard,
    write_telemetry_dir,
)
from repro.monitor import (
    MonitorConfig,
    MonitorDaemon,
    MonitorError,
    render_status,
)
from repro.obs.bench import DEFAULT_ROUNDS
from repro.obs.report_html import REPORT_FILENAME
from repro.obs.summary import format_text
from repro.obs.trends import runs_section
from repro.serve import (
    CATALOG_HOST,
    Catalog,
    CatalogError,
    build_catalog,
    build_catalog_site,
    render_serve_bench,
    run_serve_bench,
    write_serve_bench,
)
from repro.store import (
    StoreError,
    StoreReader,
    existing_store_artifact,
    load_dataset,
    save_dataset,
)
from repro.util.fileio import atomic_write_json
from repro.util.simtime import SimClock
from repro.web.http import Request
from repro.web.server import Internet

META_FILENAME = "study_meta.json"


class OutputPathError(Exception):
    """An output path the command cannot write; the message names it."""


@contextlib.contextmanager
def _writing(path: str):
    """Report a ``path`` the block cannot create as one
    :class:`OutputPathError` line.  Only errors about the path itself
    (missing or non-directory parent, a directory where a file goes, no
    permission) are caught: a disk that fails mid-write keeps its own
    error."""
    try:
        yield
    except (FileExistsError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError, PermissionError) as exc:
        reason = exc.strerror or str(exc)
        if exc.filename and os.path.abspath(exc.filename) != os.path.abspath(path):
            reason += f": {exc.filename}"  # the part of the path at fault
        raise OutputPathError(f"cannot write {path}: {reason}") from exc


def _check_output(path: Optional[str], directory: bool = False) -> None:
    """Refuse, before a command does its work, an output path it could
    not write when it finishes: a file where a directory must be (the
    output directory itself, or the nearest parent that exists), or a
    directory where the output file goes.  Nothing is created."""
    if not path:
        return
    target = os.path.abspath(path)
    if not directory and os.path.isdir(target):
        raise OutputPathError(f"cannot write {path}: Is a directory")
    existing = target if directory else os.path.dirname(target)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise OutputPathError(
            f"cannot write {path}: Not a directory: {existing}")


class _RunInterrupted(Exception):
    """SIGTERM/SIGINT arrived mid-study (``repro run``)."""

    def __init__(self, signum: int):
        super().__init__(f"signal {signum}")
        self.signum = signum


def _study_config(args: argparse.Namespace) -> StudyConfig:
    return StudyConfig(
        seed=args.seed,
        scale=args.scale,
        iterations=args.iterations,
        include_underground=not args.no_underground,
        chaos_profile=getattr(args, "chaos", "off") or "off",
        checkpoint_dir=getattr(args, "checkpoint_dir", None),
        resume=bool(getattr(args, "resume", False)),
        strict_contracts=bool(getattr(args, "strict_contracts", False)),
        fail_stages=tuple(getattr(args, "fail_stage", None) or ()),
        archive_dir=getattr(args, "archive_dir", None),
    )


def _telemetry_for(args: argparse.Namespace) -> Telemetry:
    """An enabled Telemetry when ``--telemetry-out`` was given, else no-op;
    ``--profile`` gives it a profiler."""
    if not getattr(args, "telemetry_out", None):
        return NULL_TELEMETRY
    if getattr(args, "profile", False):
        return Telemetry(profiler=StageProfiler(stages_expected=STAGE_NAMES))
    return Telemetry()


def _export_telemetry(args: argparse.Namespace, config: StudyConfig,
                      result, telemetry: Telemetry) -> None:
    """Write metrics/trace/events plus the run manifest to the out dir."""
    out_dir = getattr(args, "telemetry_out", None)
    if not out_dir or not telemetry.enabled:
        return
    write_telemetry_dir(out_dir, config, result, telemetry,
                        command=sys.argv[1:])
    print(f"telemetry written to {out_dir}", file=sys.stderr)


def _degraded_line(analyses: AnalysisResults, stage: str, section: str) -> str:
    failure = next((f for f in analyses.failures if f.stage == stage), None)
    detail = f" ({failure.kind}: {failure.detail})" if failure else ""
    return f"[degraded] {section}: stage '{stage}' failed{detail}"


def _render_all(dataset: MeasurementDataset, scale: float,
                meta: Optional[dict] = None,
                telemetry: Optional[Telemetry] = None,
                analyses: Optional[AnalysisResults] = None,
                strict: bool = False,
                fail_stages=()) -> None:
    """Render every table and figure the analyses support to stdout.

    Stages run under a :class:`StageSupervisor` (unless precomputed
    ``analyses`` are passed in, e.g. from a telemetry-enabled study run):
    a failed stage renders a one-line ``[degraded]`` marker in place of
    its tables instead of killing the report.
    """
    def write(text: str) -> None:
        print(text + "\n")

    if analyses is None:
        supervisor = StageSupervisor(
            telemetry if telemetry is not None and telemetry.enabled else None,
            strict=strict,
            fail_stages=tuple(fail_stages),
        )
        analyses = run_analysis_suite(dataset, supervisor, telemetry=telemetry)

    write(reports.render_table9(CHANNELS))
    anatomy = analyses.report("anatomy")
    if anatomy is not None:
        write(reports.render_table1(anatomy, scale))
        write(reports.render_table2(anatomy, scale))
    else:
        write(_degraded_line(analyses, "anatomy",
                             "section 4.1 (tables 1-2, anatomy extras)"))
    if meta and meta.get("payment_methods"):
        matrix = MarketplaceAnatomy.payment_matrix(
            {m: [tuple(p) for p in pairs] for m, pairs in meta["payment_methods"].items()}
        )
        write(reports.render_table3(matrix))
    if anatomy is not None:
        write(reports.render_anatomy_extras(anatomy, scale))
    setup = analyses.report("account_setup")
    if setup is not None:
        write(reports.render_table4(setup))
        write(reports.render_fig4(setup))
    else:
        write(_degraded_line(analyses, "account_setup",
                             "section 5 (table 4, figure 4)"))
    scam = analyses.report("scam_posts")
    if scam is not None:
        write(reports.render_table5(scam, scale))
        write(reports.render_table6(scam, scale))
    else:
        write(_degraded_line(analyses, "scam_posts",
                             "section 6 (tables 5-6)"))
    network = analyses.report("network")
    if network is not None:
        write(reports.render_table7(network, scale))
        write(reports.render_fig5(fig5_descriptions(network)))
    else:
        write(_degraded_line(analyses, "network",
                             "section 7 (table 7, figure 5)"))
    efficacy = analyses.report("efficacy")
    if efficacy is not None:
        write(reports.render_table8(efficacy))
    else:
        write(_degraded_line(analyses, "efficacy", "section 8 (table 8)"))
    underground = analyses.report("underground")
    if underground is not None:
        write(reports.render_underground(underground))
    else:
        write(_degraded_line(analyses, "underground",
                             "section 4.2 (underground forums)"))
    if meta and meta.get("active_per_iteration"):
        dynamics = listing_dynamics(
            meta["active_per_iteration"], meta["cumulative_per_iteration"]
        )
        write(reports.render_fig2(dynamics))
    write(reports.render_fig3(fig3_outlier(dataset)))


def _refuse_profile_without_telemetry(args: argparse.Namespace) -> bool:
    """True (after saying so) when ``--profile`` lacks the
    ``--telemetry-out`` dir that profile.json is written into."""
    if not getattr(args, "profile", False) or \
            getattr(args, "telemetry_out", None):
        return False
    print("--profile requires --telemetry-out (profile.json is written "
          "into the telemetry directory)", file=sys.stderr)
    return True


def _run_meta(result, seed: int, scale: float, iterations: int) -> dict:
    """The ``study_meta.json`` document of a finished run or replay."""
    return {
        "seed": seed,
        "scale": scale,
        "iterations": iterations,
        "active_per_iteration": result.active_per_iteration,
        "cumulative_per_iteration": result.cumulative_per_iteration,
        "payment_methods": {
            market: [list(pair) for pair in pairs]
            for market, pairs in result.payment_methods.items()
        },
        "simulated_seconds": result.simulated_seconds,
    }


def _refuse_used_out(out_dir: str) -> bool:
    """True (after saying so) when ``out_dir`` already holds a store.

    Checked before any work: a second run into a used directory would
    otherwise crawl the whole study only to be refused at save time.
    """
    artifact = existing_store_artifact(out_dir)
    if artifact is None:
        return False
    print(f"store save refused: {out_dir} already holds a store "
          f"({artifact}); use a fresh directory or delete the old store "
          f"first", file=sys.stderr)
    return True


def _save_run(out_dir: str, result, meta: dict, telemetry: Telemetry) -> int:
    """Write a finished run into ``out_dir``: the segmented store, then
    ``quarantine.jsonl`` (and ``scorecard.json`` when the run scored
    one), then ``study_meta.json`` last.  Returns the exit code.

    The study's disk-fault injector (if chaos is on) carries over, so an
    ENOSPC byte budget spans checkpoints and this save — one disk, one
    budget.  A full disk is graceful degradation: the flushed prefix is
    sealed, the run is marked partial, and the exit stays 0 — losing
    tail records beats losing the run.
    """
    try:
        saved = save_dataset(result.dataset, out_dir,
                             faults=result.disk_faults, telemetry=telemetry)
    except StoreError as exc:
        # Another writer claimed the directory after _refuse_used_out;
        # its study_meta.json is not ours to overwrite.
        print(f"store save refused: {exc}", file=sys.stderr)
        return 1
    except DiskWriteError as exc:
        print(f"store save failed: {exc}", file=sys.stderr)
        atomic_write_json(os.path.join(out_dir, META_FILENAME),
                          dict(meta, partial="disk_error"))
        return 1
    if saved.partial:
        meta["partial"] = saved.partial
        print(
            f"disk full while saving the store: flushed {saved.counts}, "
            f"dropped {sum(saved.dropped.values())} record(s); run marked "
            f"partial:{saved.partial}",
            file=sys.stderr,
        )
    if result.quarantine is not None:
        result.quarantine.write_jsonl(out_dir)
    if result.scorecard is not None:
        write_scorecard(out_dir, result.scorecard)
    atomic_write_json(os.path.join(out_dir, META_FILENAME), meta)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    if _refuse_profile_without_telemetry(args):
        return 2
    for path in (args.out, args.telemetry_out, args.archive_dir,
                 args.checkpoint_dir):
        _check_output(path, directory=True)
    if _refuse_used_out(args.out):
        return 1
    config = _study_config(args)
    telemetry = _telemetry_for(args)

    # A graceful SIGTERM/SIGINT mid-study must not leave a half-written
    # output dir that looks complete: the handler raises, we mark the
    # meta file ``"partial": "interrupted"`` and exit 130.  The crawl
    # checkpoint (--checkpoint-dir) is already flushed after every
    # iteration, so --resume continues from the last durable boundary.
    def _raise_interrupt(signum, _frame):
        raise _RunInterrupted(signum)

    previous_handlers = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous_handlers[signum] = signal.signal(
                signum, _raise_interrupt
            )
        except ValueError:
            # Not the main thread (embedded use); run unprotected.
            break
    try:
        result = Study(config, telemetry=telemetry).run()
    except _RunInterrupted as exc:
        os.makedirs(args.out, exist_ok=True)
        atomic_write_json(os.path.join(args.out, META_FILENAME), {
            "seed": args.seed,
            "scale": args.scale,
            "iterations": args.iterations,
            "partial": "interrupted",
            "signal": exc.signum,
        })
        print(
            f"interrupted by signal {exc.signum}: partial run marked in "
            f"{args.out}/{META_FILENAME}"
            + (
                "; resume with --resume"
                if getattr(args, "checkpoint_dir", None) else ""
            ),
            file=sys.stderr,
        )
        return 130
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
    meta = _run_meta(result, args.seed, args.scale, args.iterations)
    code = _save_run(args.out, result, meta, telemetry)
    if code:
        return code
    _export_telemetry(args, config, result, telemetry)
    print(f"saved run to {args.out}: {result.dataset.summary()}")
    return 0


def _load_run(run_dir: str) -> Optional[Tuple[MeasurementDataset, dict]]:
    """A saved run's ``(dataset, meta)``, or None after saying why not.

    Tolerant load: a corrupt segment (e.g. a bit flip on cold media) or
    a record of the wrong shape is quarantined and reported, not fatal.
    A missing meta file is optional; an unreadable one is not, because
    the report would silently fall back to the wrong scale.
    """
    quarantine = QuarantineStore()
    try:
        dataset = load_dataset(run_dir, quarantine=quarantine)
    except StoreError as exc:
        print(f"no dataset found in {run_dir}: {exc}", file=sys.stderr)
        return None
    if quarantine.total:
        print(
            f"warning: quarantined {quarantine.total} corrupt dataset "
            f"segment(s) or record(s): "
            + ", ".join(f"{k}={v}"
                        for k, v in quarantine.counts_by_rule().items()),
            file=sys.stderr,
        )
    if not dataset.listings:
        print(f"no dataset found in {run_dir}", file=sys.stderr)
        return None
    meta_path = os.path.join(run_dir, META_FILENAME)
    if not os.path.exists(meta_path):
        return dataset, {}
    try:
        with open(meta_path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        if not isinstance(meta, dict):
            raise ValueError("not a JSON object")
    except (OSError, ValueError) as exc:
        print(f"unreadable run meta {meta_path}: {exc}", file=sys.stderr)
        return None
    return dataset, meta


def cmd_report(args: argparse.Namespace) -> int:
    loaded = _load_run(args.run_dir)
    if loaded is None:
        return 1
    dataset, meta = loaded
    scale = args.scale if args.scale is not None else meta.get("scale", 1.0)
    _render_all(dataset, scale, meta)
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    if _refuse_profile_without_telemetry(args):
        return 2
    _check_output(args.telemetry_out, directory=True)
    config = _study_config(args)
    telemetry = _telemetry_for(args)
    result = Study(config, telemetry=telemetry).run()
    meta = _run_meta(result, args.seed, args.scale, args.iterations)
    # Reuse the supervised suite the study already ran (telemetry path);
    # otherwise run it here under a fresh supervisor.
    _render_all(
        result.dataset, args.scale, meta, telemetry=telemetry,
        analyses=result.analyses,
        strict=config.strict_contracts,
        fail_stages=config.fail_stages,
    )
    _export_telemetry(args, config, result, telemetry)
    return 0


def cmd_channels(_args: argparse.Namespace) -> int:
    print(reports.render_table9(CHANNELS))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    document = trace_document(args.run_dir)
    if getattr(args, "json", False):
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(render_trace_summary(document))
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    document_a = trace_document(args.run_a)
    document_b = trace_document(args.run_b)
    diff = diff_runs(document_a, document_b, include_wall=args.wall)
    print(diff.render_text())
    return 1 if diff.has_regressions else 0


def cmd_health(args: argparse.Namespace) -> int:
    document = trace_document(args.run_dir)
    out_path = args.out or os.path.join(args.run_dir, REPORT_FILENAME)
    with _writing(out_path), open(out_path, "w", encoding="utf-8") as handle:
        handle.write(render_health_html(document))
    problems = health_problems(document)
    print(f"wrote {out_path} ({'healthy' if not problems else 'UNHEALTHY'})")
    for problem in problems:
        print(f"  - {problem}", file=sys.stderr)
    if args.strict and problems:
        return 1
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    # An unusable baseline is refused before any round is timed.
    baseline = load_baseline(args.compare) if args.compare else None
    _check_output(args.out)
    _check_output(args.profile_out)
    bench = run_bench(
        rounds=args.rounds,
        scale=args.scale,
        iterations=args.iterations,
        seed=args.seed,
        profile_out=args.profile_out,
        progress=lambda line: print(line, file=sys.stderr),
    )
    if baseline is not None:
        comparison = compare_bench(
            baseline, bench,
            tolerance=args.tolerance, baseline_path=args.compare,
        )
        print(comparison.render_text())
        if args.out:
            with _writing(args.out):
                print(f"wrote {write_bench(args.out, bench)}")
        return 1 if comparison.regressed else 0
    out = args.out or BENCH_FILENAME
    with _writing(out):
        print(f"wrote {write_bench(out, bench)}")
    totals = bench["totals"]
    print(
        f"  wall median {totals['wall_seconds']['median']:.2f}s, "
        f"{totals['pages_per_second_median']:,.0f} pages/s, "
        f"{totals['records_per_second_median']:,.0f} records/s"
    )
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.core.export import export_figures

    loaded = _load_run(args.run_dir)
    if loaded is None:
        return 1
    dataset, meta = loaded
    with _writing(args.out):
        written = export_figures(
            dataset,
            args.out,
            active_per_iteration=meta.get("active_per_iteration"),
            cumulative_per_iteration=meta.get("cumulative_per_iteration"),
        )
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    for path in (args.out, args.telemetry_out):
        _check_output(path, directory=True)
    if _refuse_used_out(args.out):
        return 1
    telemetry = _telemetry_for(args)
    try:
        result = run_replay(args.archive_dir, telemetry=telemetry)
    except (ArchiveError, ReplayError) as exc:
        print(f"replay failed: {exc}", file=sys.stderr)
        return 2
    # The meta file mirrors cmd_run's byte for byte: same keys, same
    # values, sourced from the archive manifest instead of the CLI args.
    archive_config = ArchiveReader.open(args.archive_dir).config
    meta = _run_meta(result, archive_config["seed"], archive_config["scale"],
                     archive_config["iterations"])
    code = _save_run(args.out, result, meta, telemetry)
    if code:
        return code
    config = dataclasses.replace(study_config_from(archive_config),
                                 archive_dir=args.archive_dir)
    _export_telemetry(args, config, result, telemetry)
    print(f"replayed {args.archive_dir} into {args.out}: "
          f"{result.dataset.summary()}")
    return 0


def _report_corrupt(kind: str, path: str, problems: List[str]) -> int:
    """Print an audit's problem list and its verdict; the exit code."""
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"{kind} {path} is CORRUPT: {len(problems)} problem(s)",
          file=sys.stderr)
    return 2


def cmd_archive_verify(args: argparse.Namespace) -> int:
    reader = ArchiveReader.open(args.archive_dir)
    problems = reader.verify()
    if problems:
        return _report_corrupt("archive", args.archive_dir, problems)
    manifest = reader.manifest
    print(
        f"archive {args.archive_dir} verified: "
        f"{manifest['exchanges_total']} exchanges, "
        f"{manifest['blobs_total']} blobs, "
        f"{manifest['bytes_total']:,} bytes intact"
    )
    return 0


def cmd_archive_diff(args: argparse.Namespace) -> int:
    reader = ArchiveReader.open(args.archive_dir)
    print(diff_iterations(reader, args.left, args.right).render_text())
    return 0


def cmd_runs_ingest(args: argparse.Namespace) -> int:
    if args.run_id and len(args.run_dirs) > 1:
        print("--run-id only applies to a single run directory",
              file=sys.stderr)
        return 2
    with RunRegistry.open(args.registry) as registry:
        for run_dir in args.run_dirs:
            result = registry.ingest(run_dir, run_id=args.run_id)
            if result.inserted:
                print(
                    f"ingested {run_dir} as {result.run_id} "
                    f"(seq {result.seq}, config {result.config_hash}, "
                    f"{result.n_metrics} metrics)"
                )
            else:
                print(
                    f"skipped {run_dir}: already ingested as "
                    f"{result.run_id} (seq {result.seq})"
                )
    return 0


def cmd_runs_list(args: argparse.Namespace) -> int:
    with RunRegistry.open_existing(args.registry) as registry:
        rows = registry.runs()
    print(format_text([runs_section(rows)]))
    return 0


def cmd_runs_show(args: argparse.Namespace) -> int:
    with RunRegistry.open_existing(args.registry) as registry:
        run = registry.run(args.run_id)
        document = registry.document(args.run_id)
    if run is None or document is None:
        print(f"no run {args.run_id} in {args.registry}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    for key, value in run.to_dict().items():
        print(f"{key}: {value}")
    return 0


def cmd_runs_trends(args: argparse.Namespace) -> int:
    with RunRegistry.open_existing(args.registry) as registry:
        series_list = compute_trends(registry)
        runs = registry.runs()
        report = evaluate_alerts(registry)
    if args.html:
        with _writing(args.html), open(args.html, "w", encoding="utf-8") as handle:
            handle.write(render_fleet_html(
                runs, series_list, report.to_dict(),
                registry_path=args.registry,
            ))
        print(f"wrote {args.html}")
        return 0
    if args.json:
        print(json.dumps(trends_document(series_list, runs),
                         indent=2, sort_keys=True))
        return 0
    print(render_trends_text(series_list))
    return 0


def cmd_runs_alerts(args: argparse.Namespace) -> int:
    with RunRegistry.open_existing(args.registry) as registry:
        report = evaluate_alerts(registry, include_wall=args.wall)
    print(report.render_text())
    if args.out:
        with _writing(args.out):
            print(f"wrote {write_alerts(args.out, report)}", file=sys.stderr)
    return 1 if report.fired else 0


def cmd_data_verify(args: argparse.Namespace) -> int:
    reader = StoreReader.open(args.store_dir)
    problems = reader.verify()
    if problems:
        return _report_corrupt("store", args.store_dir, problems)
    counts = reader.counts()
    total = sum(counts.values())
    segments = len(reader.manifest.get("segments", [])) \
        if reader.manifest else 0
    line = (
        f"store {args.store_dir} verified: {total} record(s) across "
        f"{segments} sealed segment(s)"
    )
    if reader.recovered_tails:
        line += f", {reader.recovered_tails} torn tail(s) recovered"
    if reader.partial:
        line += f" [partial:{reader.partial}]"
    print(line)
    return 0


def cmd_data_stats(args: argparse.Namespace) -> int:
    reader = StoreReader.open(args.store_dir)
    counts = reader.counts()
    manifest = reader.manifest or {}
    sealed = manifest.get("segments", [])
    print(f"store: {args.store_dir}")
    print(f"sealed: {manifest.get('sealed', False)}"
          + (f"  partial: {manifest['partial']}"
             if manifest.get("partial") else ""))
    print(f"segments: {len(sealed)} sealed, "
          f"{sum(e['bytes'] for e in sealed):,} record bytes")
    # Explicitly sorted by record type: the stats for twin store dirs
    # must be byte-identical regardless of dict/manifest ordering.
    for record_type, count in sorted(counts.items()):
        print(f"  {record_type}: {count} record(s)")
    if reader.recovered_tails:
        print(f"recovered tails: {reader.recovered_tails}")
    if reader.quarantined_segments:
        print(f"quarantined segments: {reader.quarantined_segments}")
    return 0


def cmd_serve_build(args: argparse.Namespace) -> int:
    _check_output(args.out, directory=True)
    result = build_catalog(args.run_dirs, args.out)
    tables = ", ".join(
        f"{name}={count}" for name, count in sorted(result.tables.items())
    )
    verb = "built" if result.rebuilt else "up to date"
    print(f"catalog {result.directory} {verb}: "
          f"digest {result.content_digest[:16]} ({tables})")
    return 0


def cmd_serve_query(args: argparse.Namespace) -> int:
    catalog = Catalog.open(args.catalog_dir)
    try:
        clock = SimClock()
        internet = Internet(clock=clock)
        site, _api = build_catalog_site(catalog, clock=clock)
        internet.register(site)
        path = args.path if args.path.startswith("/") else "/" + args.path
        response = internet.fetch(
            Request(method="GET", url=f"http://{CATALOG_HOST}{path}"),
            client_id="cli",
        )
    finally:
        catalog.close()
    try:
        body = json.dumps(json.loads(response.body), indent=2,
                          sort_keys=True)
    except ValueError:
        body = response.body
    if response.status != 200:
        print(f"HTTP {response.status}", file=sys.stderr)
        print(body, file=sys.stderr)
        return 1
    print(body)
    return 0


def cmd_serve_bench(args: argparse.Namespace) -> int:
    if args.out and not os.path.isdir(args.out):
        _check_output(args.out)
    document = run_serve_bench(
        args.catalog_dir,
        clients=args.clients,
        requests_per_client=args.requests,
        distinct_queries=args.queries,
        seed=args.seed,
        progress=lambda line: print(line, file=sys.stderr),
    )
    print(render_serve_bench(document))
    if args.out:
        with _writing(args.out):
            print(f"wrote {write_serve_bench(args.out, document)}")
    return 0


def cmd_monitor_run(args: argparse.Namespace) -> int:
    if not args.forever and args.cycles is None:
        print("monitor run needs --cycles N or --forever", file=sys.stderr)
        return 2
    _check_output(args.state_dir, directory=True)
    config = MonitorConfig(
        state_dir=args.state_dir,
        cycles=None if args.forever else args.cycles,
        interval_seconds=args.interval,
        seed=args.seed,
        scale=args.scale,
        iterations=args.iterations,
        include_underground=not args.no_underground,
        chaos_profile=args.chaos,
        catch_up=args.catch_up,
        keep_runs=args.keep_runs,
        max_bytes=args.max_bytes,
        max_attempts=args.max_attempts,
        backoff_seconds=args.backoff,
        max_consecutive_failures=args.max_failures,
        fail_stages=tuple(
            args.fail_stage or (("anatomy",) if args.fail_cycle else ())
        ),
        fail_cycles=tuple(args.fail_cycle or ()),
        scheduler="wall" if args.wall_clock else "sim",
    )
    daemon = MonitorDaemon(
        config, printer=lambda line: print(line, file=sys.stderr)
    )
    return daemon.run(install_signals=True)


def cmd_monitor_status(args: argparse.Namespace) -> int:
    print(render_status(args.state_dir))
    return 0


def _add_log_level(parser: argparse.ArgumentParser) -> None:
    """``--log-level``, for the commands that crawl (only the crawler
    logs); :func:`main` configures the logger from it."""
    parser.add_argument("--log-level", default="warning",
                        choices=["debug", "info", "warning", "error"],
                        help="logging verbosity for the repro logger")


def _add_study_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.05,
                        help="world scale; 1.0 = the paper's 38K listings")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--iterations", type=int, default=6,
                        help="collection iterations (Figure 2)")
    parser.add_argument("--no-underground", action="store_true",
                        help="skip the Tor-forum manual collection")
    parser.add_argument("--chaos", default="off",
                        choices=list(PROFILES),
                        help="inject seeded faults at the named intensity: "
                             "off/light/moderate/heavy hit the network "
                             "(outages, 5xx bursts, hangs, 429 storms, "
                             "corrupt pages); disk/disk_full hit storage "
                             "(ENOSPC, torn writes, fsync failure, bit "
                             "flips)")
    _add_log_level(parser)
    parser.add_argument("--telemetry-out", default=None, metavar="DIR",
                        help="enable telemetry and write manifest.json, "
                             "metrics.json, trace.jsonl, events.jsonl here")
    parser.add_argument("--profile", action="store_true",
                        help="record a performance profile (per-phase "
                             "wall/sim/memory/throughput) and write "
                             "profile.json into --telemetry-out")
    parser.add_argument("--strict-contracts", action="store_true",
                        help="treat any quarantined record as a hard "
                             "error (exit 3) instead of dead-lettering "
                             "it to quarantine.jsonl")
    parser.add_argument("--fail-stage", action="append", metavar="STAGE",
                        choices=list(STAGE_NAMES),
                        help="deliberately fail the named analysis stage "
                             "(repeatable) to drill degraded reporting; "
                             f"one of: {', '.join(STAGE_NAMES)}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the IMC 2025 account-marketplace study",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="run a study and save the dataset")
    _add_study_args(run_parser)
    run_parser.add_argument("--out", required=True, metavar="DIR",
                            help="output directory: the crash-safe "
                                 "segmented dataset store (verify with "
                                 "'repro data verify DIR') plus "
                                 "study_meta.json, quarantine.jsonl and, "
                                 "with --telemetry-out, scorecard.json; "
                                 "must not already hold a store")
    run_parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                            help="persist crawl state here after every "
                                 "iteration (enables --resume)")
    run_parser.add_argument("--resume", action="store_true",
                            help="resume a killed run from the checkpoint "
                                 "in --checkpoint-dir instead of starting "
                                 "fresh")
    run_parser.add_argument("--archive-dir", default=None, metavar="DIR",
                            help="archive every HTTP exchange into a "
                                 "content-addressed store here; replay "
                                 "later with 'repro replay DIR'")
    run_parser.set_defaults(handler=cmd_run)

    report_parser = commands.add_parser("report", help="render tables from a saved run")
    report_parser.add_argument("run_dir")
    report_parser.add_argument("--scale", type=float, default=None,
                               help="override the scale used for paper comparison")
    report_parser.set_defaults(handler=cmd_report)

    tables_parser = commands.add_parser("tables", help="run a study and print tables")
    _add_study_args(tables_parser)
    tables_parser.set_defaults(handler=cmd_tables)

    channels_parser = commands.add_parser("channels", help="print the Table-9 inventory")
    channels_parser.set_defaults(handler=cmd_channels)

    trace_parser = commands.add_parser(
        "trace", help="summarize a run's telemetry (stages, events, errors)"
    )
    trace_parser.add_argument("run_dir", help="directory written by --telemetry-out")
    trace_parser.add_argument("--json", action="store_true",
                              help="emit the summary as a stable JSON "
                                   "document (repro.trace-summary/v1) "
                                   "instead of text")
    trace_parser.set_defaults(handler=cmd_trace)

    runs_parser = commands.add_parser(
        "runs",
        help="cross-run registry: ingest telemetry dirs, list runs, "
             "trend metrics, evaluate anomaly alerts",
    )
    runs_commands = runs_parser.add_subparsers(dest="runs_command",
                                               required=True)

    def _registry_arg(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--registry", required=True, metavar="PATH",
                         help="the SQLite run-registry file")

    ingest_parser = runs_commands.add_parser(
        "ingest", help="fold completed telemetry directories into the "
                       "registry (idempotent per run)",
    )
    ingest_parser.add_argument("run_dirs", nargs="+", metavar="RUN_DIR",
                               help="directories written by --telemetry-out")
    _registry_arg(ingest_parser)
    ingest_parser.add_argument("--run-id", default=None,
                               help="override the content-derived run id "
                                    "(single directory only)")
    ingest_parser.set_defaults(handler=cmd_runs_ingest)

    list_parser = runs_commands.add_parser(
        "list", help="registered runs in ingestion order"
    )
    _registry_arg(list_parser)
    list_parser.set_defaults(handler=cmd_runs_list)

    show_parser = runs_commands.add_parser(
        "show", help="one registered run's row (or full stored document)"
    )
    show_parser.add_argument("run_id")
    _registry_arg(show_parser)
    show_parser.add_argument("--json", action="store_true",
                             help="print the stored trace document")
    show_parser.set_defaults(handler=cmd_runs_show)

    trends_parser = runs_commands.add_parser(
        "trends", help="per-metric trend series with median/MAD baselines"
    )
    _registry_arg(trends_parser)
    trends_parser.add_argument("--json", action="store_true",
                               help="emit repro.trend-series/v1 JSON")
    trends_parser.add_argument("--html", default=None, metavar="PATH",
                               help="write the fleet dashboard HTML here "
                                    "instead of printing the table")
    trends_parser.set_defaults(handler=cmd_runs_trends)

    alerts_parser = runs_commands.add_parser(
        "alerts",
        help="judge the latest run against the fleet baseline; exit 1 "
             "when any deterministic anomaly rule fires",
    )
    _registry_arg(alerts_parser)
    alerts_parser.add_argument("--wall", action="store_true",
                               help="also apply the stage-time rule to "
                                    "(machine-noisy) wall clock")
    alerts_parser.add_argument("--out", default=None, metavar="PATH",
                               help="also write machine-readable "
                                    "alerts.json here (file or directory)")
    alerts_parser.set_defaults(handler=cmd_runs_alerts)

    data_parser = commands.add_parser(
        "data",
        help="inspect or verify a segmented dataset store "
             "(run --out)",
    )
    data_commands = data_parser.add_subparsers(dest="data_command",
                                               required=True)
    dverify_parser = data_commands.add_parser(
        "verify",
        help="re-hash every sealed segment against its footer and the "
             "manifest; exit 2 on any corruption",
    )
    dverify_parser.add_argument("store_dir")
    dverify_parser.set_defaults(handler=cmd_data_verify)
    dstats_parser = data_commands.add_parser(
        "stats", help="record counts, segments, and degradation markers"
    )
    dstats_parser.add_argument("store_dir")
    dstats_parser.set_defaults(handler=cmd_data_stats)

    serve_parser = commands.add_parser(
        "serve",
        help="the serving layer: build a read-optimized catalog from run "
             "dirs, query its HTTP API, or load-test it",
    )
    serve_commands = serve_parser.add_subparsers(dest="serve_command",
                                                 required=True)
    sbuild_parser = serve_commands.add_parser(
        "build",
        help="ingest run directories (one cycle each, in order) into a "
             "SQLite catalog + deterministic catalog.json manifest; "
             "idempotent when the sources are unchanged",
    )
    sbuild_parser.add_argument("run_dirs", nargs="+", metavar="RUN_DIR",
                               help="saved runs ('run --out' "
                                    "directories)")
    sbuild_parser.add_argument("--out", required=True, metavar="DIR",
                               help="the catalog directory")
    sbuild_parser.set_defaults(handler=cmd_serve_build)
    squery_parser = serve_commands.add_parser(
        "query",
        help="issue one GET against the catalog API and print the JSON "
             "body (exit 1 on HTTP error, 2 on missing/corrupt catalog)",
    )
    squery_parser.add_argument("catalog_dir")
    squery_parser.add_argument(
        "path",
        help="API path with query string, e.g. "
             "'/api/listings?marketplace=m1&limit=5'",
    )
    squery_parser.set_defaults(handler=cmd_serve_query)
    sbench_parser = serve_commands.add_parser(
        "bench",
        help="drive seeded simulated clients through the catalog API; "
             "report p50/p95 latency and cache hit rate",
    )
    sbench_parser.add_argument("catalog_dir")
    sbench_parser.add_argument("--clients", type=int, default=1000,
                               help="simulated client population")
    sbench_parser.add_argument("--requests", type=int, default=5,
                               help="requests per client")
    sbench_parser.add_argument("--queries", type=int, default=200,
                               help="distinct-query pool size (repeated-"
                                    "query workload)")
    sbench_parser.add_argument("--seed", type=int, default=7)
    sbench_parser.add_argument("--out", default=None, metavar="PATH",
                               help="write BENCH_serve.json here "
                                    "(file or directory)")
    sbench_parser.set_defaults(handler=cmd_serve_bench)

    monitor_parser = commands.add_parser(
        "monitor",
        help="supervised continuous measurement: run the pipeline on a "
             "recurring schedule with a crash-safe cycle ledger",
    )
    monitor_commands = monitor_parser.add_subparsers(
        dest="monitor_command", required=True
    )
    mrun_parser = monitor_commands.add_parser(
        "run",
        help="run measurement cycles against a state directory "
             "(exit 0 done, 2 bad state dir, 4 circuit, 130 signal)",
    )
    mrun_parser.add_argument("--state-dir", required=True, metavar="DIR",
                             help="the monitor state directory (ledger, "
                                  "registry, cycle run dirs, lock)")
    mrun_parser.add_argument("--cycles", type=int, default=None, metavar="N",
                             help="total cycles in the campaign")
    mrun_parser.add_argument("--forever", action="store_true",
                             help="run until stopped by a signal")
    mrun_parser.add_argument("--interval", type=float, default=86400.0,
                             metavar="SECONDS",
                             help="simulated seconds between cycle starts "
                                  "(default: daily)")
    mrun_parser.add_argument("--seed", type=int, default=2024,
                             help="series base seed; cycle k runs with "
                                  "seed+k")
    mrun_parser.add_argument("--scale", type=float, default=0.02)
    mrun_parser.add_argument("--iterations", type=int, default=3)
    mrun_parser.add_argument("--no-underground", action="store_true")
    mrun_parser.add_argument("--chaos", default="off",
                             choices=list(PROFILES))
    mrun_parser.add_argument("--catch-up", default="run",
                             choices=["run", "skip"],
                             help="torn/missed cycles on restart: re-run "
                                  "them or record them skipped")
    mrun_parser.add_argument("--keep-runs", type=int, default=None,
                             metavar="N",
                             help="retention: keep at most N ingested run "
                                  "dirs (the registry keeps every row)")
    mrun_parser.add_argument("--max-bytes", type=int, default=None,
                             metavar="B",
                             help="retention: keep at most B bytes of "
                                  "ingested run dirs")
    mrun_parser.add_argument("--max-attempts", type=int, default=2,
                             help="attempts per cycle before it counts "
                                  "as failed")
    mrun_parser.add_argument("--backoff", type=float, default=300.0,
                             metavar="SECONDS",
                             help="simulated backoff before a retry "
                                  "(doubles per further retry)")
    mrun_parser.add_argument("--max-failures", type=int, default=3,
                             metavar="N",
                             help="consecutive failed cycles before the "
                                  "daemon exits 4")
    mrun_parser.add_argument("--fail-cycle", action="append", type=int,
                             metavar="K",
                             help="drill: deliberately degrade cycle K "
                                  "(repeatable; see --fail-stage)")
    mrun_parser.add_argument("--fail-stage", action="append", metavar="STAGE",
                             choices=list(STAGE_NAMES),
                             help="analysis stage(s) to fail in "
                                  "--fail-cycle cycles (default: anatomy)")
    mrun_parser.add_argument("--wall-clock", action="store_true",
                             help="really sleep --interval between cycles "
                                  "instead of simulated-time scheduling")
    _add_log_level(mrun_parser)
    mrun_parser.set_defaults(handler=cmd_monitor_run)
    mstatus_parser = monitor_commands.add_parser(
        "status", help="render a state dir's ledger/lock/registry/alerts"
    )
    mstatus_parser.add_argument("--state-dir", required=True, metavar="DIR")
    mstatus_parser.set_defaults(handler=cmd_monitor_status)

    diff_parser = commands.add_parser(
        "diff", help="compare two telemetry dirs; exit 1 on regressions"
    )
    diff_parser.add_argument("run_a", help="baseline telemetry directory")
    diff_parser.add_argument("run_b", help="new telemetry directory")
    diff_parser.add_argument("--wall", action="store_true",
                             help="also print (machine-dependent) wall ratios")
    diff_parser.set_defaults(handler=cmd_diff)

    health_parser = commands.add_parser(
        "health", help="render a telemetry dir as an HTML health dashboard"
    )
    health_parser.add_argument("run_dir", help="directory written by --telemetry-out")
    health_parser.add_argument("--out", default=None,
                               help="output HTML path (default: RUN_DIR/health.html)")
    health_parser.add_argument("--strict", action="store_true",
                               help="exit 1 when the scorecard failed or the "
                                    "watchdog found critical issues")
    health_parser.set_defaults(handler=cmd_health)

    bench_parser = commands.add_parser(
        "bench",
        help="run the throughput study N times; write BENCH_pipeline.json "
             "or compare against a committed baseline",
    )
    bench_parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS,
                              help="timing rounds (default: "
                                   f"{DEFAULT_ROUNDS})")
    bench_parser.add_argument("--scale", type=float, default=0.02,
                              help="world scale for the bench study")
    bench_parser.add_argument("--iterations", type=int, default=3)
    bench_parser.add_argument("--seed", type=int, default=99)
    bench_parser.add_argument("--out", default=None, metavar="PATH",
                              help="where to write the bench JSON "
                                   f"(default: {BENCH_FILENAME}; in "
                                   "--compare mode nothing is written "
                                   "unless set, so the baseline survives)")
    bench_parser.add_argument("--compare", default=None, metavar="BASELINE",
                              help="compare against a committed baseline "
                                   "instead of recording one; exits 1 on "
                                   "regression, 2 on a corrupt baseline")
    bench_parser.add_argument("--tolerance", type=float, default=0.25,
                              help="relative drift tolerated before a "
                                   "metric counts as improved/regressed")
    bench_parser.add_argument("--profile-out", default=None, metavar="PATH",
                              help="also export the memory round's full "
                                   "profile.json here")
    _add_log_level(bench_parser)
    bench_parser.set_defaults(handler=cmd_bench)

    replay_parser = commands.add_parser(
        "replay",
        help="re-run extraction + analysis offline from a crawl archive",
    )
    replay_parser.add_argument("archive_dir",
                               help="directory written by run --archive-dir")
    replay_parser.add_argument("--out", required=True,
                               help="output directory (same layout as "
                                    "'run --out')")
    replay_parser.add_argument("--telemetry-out", default=None, metavar="DIR",
                               help="record and export replay telemetry here")
    _add_log_level(replay_parser)
    replay_parser.set_defaults(handler=cmd_replay)

    archive_parser = commands.add_parser(
        "archive", help="inspect or verify a crawl archive"
    )
    archive_commands = archive_parser.add_subparsers(
        dest="archive_command", required=True
    )
    verify_parser = archive_commands.add_parser(
        "verify",
        help="re-hash every index and blob; exit 2 on any corruption",
    )
    verify_parser.add_argument("archive_dir")
    verify_parser.set_defaults(handler=cmd_archive_verify)
    adiff_parser = archive_commands.add_parser(
        "diff",
        help="per-marketplace offer-page churn between two iterations",
    )
    adiff_parser.add_argument("archive_dir")
    adiff_parser.add_argument("left", type=int,
                              help="baseline iteration index")
    adiff_parser.add_argument("right", type=int,
                              help="comparison iteration index")
    adiff_parser.set_defaults(handler=cmd_archive_diff)

    figures_parser = commands.add_parser(
        "figures", help="export figure series from a saved run as CSV"
    )
    figures_parser.add_argument("run_dir")
    figures_parser.add_argument("--out", required=True, help="output directory for CSVs")
    figures_parser.set_defaults(handler=cmd_figures)
    return parser


#: An input a command cannot use: a missing or corrupt telemetry dir,
#: bench baseline, archive, store, registry, catalog or monitor state
#: dir, or an output path it cannot write.  Each message is one
#: printable line; :func:`main` prints it and exits 2.
_UNUSABLE_INPUT_ERRORS = (
    ArchiveError, BenchError, CatalogError, MonitorError, OutputPathError,
    RegistryError, StoreError, TelemetryDirError,
)


def main(argv: Optional[List[str]] = None) -> int:
    """Parse ``argv``, run the command; the only code that maps errors
    to exit codes (see the module docstring)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(getattr(args, "log_level", "warning"))
    try:
        return args.handler(args)
    except _UNUSABLE_INPUT_ERRORS as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ContractViolationError as exc:
        print(f"strict contracts: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # stdout went away mid-print (e.g. `repro trace DIR | head`);
        # exit quietly like any Unix tool instead of tracebacking.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
