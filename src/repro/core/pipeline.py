"""The three-module study pipeline (Figure 1).

Module 1 — *collect marketplaces*: triage the Table-9 channel inventory
down to the monitorable markets and stand their sites up.

Module 2 — *data collection*: run the iteration crawl over all public
marketplaces, query platform APIs for every visible profile, and run the
manual-protocol collector over the underground forums.

Module 3 — *tracking and analysis* lives in :mod:`repro.analysis`; this
module hands it a complete :class:`~repro.core.dataset.MeasurementDataset`
plus the crawl artifacts (Figure-2 series, payment-method matrix).

:func:`collect_and_analyze` is the one copy of the phase sequence
(iteration crawl → payment pages → profiles → status sweep →
underground → contracts → analysis suite → scorecard).  :class:`Study`
runs it over the live synthetic Internet and ``repro replay``
(:mod:`repro.archive.replay`) over a sealed archive; each caller
supplies only its clients, its span prefix and its hooks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.suite import AnalysisResults, run_analysis_suite
from repro.archive.writer import POST_COLLECTION_PHASE, ArchiveWriter
from repro.contracts.quarantine import QuarantineStore
from repro.contracts.schema import ValidationReport, validate_dataset
from repro.contracts.supervisor import StageFailure, StageSupervisor
from repro.core.dataset import MeasurementDataset
from repro.crawler.crawler import CrawlReport, IterationCrawl, MarketplaceCrawler
from repro.faults import DiskFaultInjector, FaultInjector, resolve_profile
from repro.crawler.profile_collector import ProfileCollector
from repro.crawler.underground_collector import UndergroundCollector
from repro.marketplaces.channels import triage, websites
from repro.marketplaces.deploy import (
    deploy_public_marketplaces,
    deploy_underground,
    set_iteration,
)
from repro.marketplaces.registry import MARKETPLACES
from repro.marketplaces.underground import onion_host
from repro.obs.quality import Scorecard, compute_scorecard
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.obs.watchdog import CrawlWatchdog
from repro.platforms.deploy import deploy_platforms, enable_moderation
from repro.synthetic.model import World
from repro.synthetic.world import WorldBuilder, WorldConfig
from repro.util.rng import RngTree
from repro.web.captcha import HumanSolver
from repro.web.client import HttpClient
from repro.web.server import Internet


@dataclass(frozen=True)
class StudyConfig:
    """Configuration of one full study run."""

    seed: int = 2024
    scale: float = 0.05
    iterations: int = 4
    include_underground: bool = True
    #: Run the analysis suite at the end of the run and score its
    #: reports in the fidelity scorecard.  The suite runs once per study
    #: (``collect_and_analyze``) and is real work, the NLP pipeline
    #: included, so benchmarks that time the crawl alone turn it off.
    scorecard_enabled: bool = True
    #: Chaos profile name (``off``/``light``/``moderate``/``heavy``):
    #: wraps the synthetic Internet in a seeded fault-injection layer.
    chaos_profile: str = "off"
    #: Directory for crawl checkpoints; with it set, the iteration crawl
    #: persists its tracker after every iteration.
    checkpoint_dir: Optional[str] = None
    #: Resume from an existing checkpoint in ``checkpoint_dir`` instead
    #: of starting fresh (the CLI's ``repro run --resume``).
    resume: bool = False
    #: Turn the first quarantine or stage failure into a hard error
    #: (the CLI's ``--strict-contracts``).
    strict_contracts: bool = False
    #: Analysis stages to fail deliberately (``--fail-stage``) —
    #: degraded-run drills and supervisor tests.
    fail_stages: Tuple[str, ...] = ()
    #: Directory for the crawl archive (``--archive-dir``): every HTTP
    #: exchange is captured into a content-addressed store sealed at the
    #: end of the run, from which ``repro replay`` re-runs extraction
    #: and analysis offline.  Off (None) by default so benchmark
    #: timings are unaffected.
    archive_dir: Optional[str] = None

    def world_config(self) -> WorldConfig:
        return WorldConfig(
            seed=self.seed,
            scale=self.scale,
            iterations=self.iterations,
            include_underground=self.include_underground,
        )


@dataclass
class StudyResult:
    """Everything a study run produced."""

    dataset: MeasurementDataset
    world: World  # ground truth, for validation only — analyses not using it
    #: Figure-2 series.
    active_per_iteration: List[int] = field(default_factory=list)
    cumulative_per_iteration: List[int] = field(default_factory=list)
    #: Table-3 raw material: marketplace -> [(group, method)].
    payment_methods: Dict[str, List[Tuple[str, str]]] = field(default_factory=dict)
    crawl_reports: List[CrawlReport] = field(default_factory=list)
    simulated_seconds: float = 0.0
    #: The telemetry context the run recorded into (no-op when disabled).
    telemetry: Telemetry = field(default_factory=Telemetry.disabled)
    #: The crawl-health watchdog that ran (None when disabled).
    watchdog: Optional[CrawlWatchdog] = None
    #: End-of-run fidelity scorecard (None when disabled).
    scorecard: Optional[Scorecard] = None
    #: The fault injector the run crawled through (None when chaos off).
    fault_injector: Optional[FaultInjector] = None
    #: The storage-plane fault injector (None unless the chaos profile
    #: has disk rates).  The CLI reuses it for the post-run store save,
    #: so a byte budget spans checkpoints *and* the final dataset — one
    #: disk, one budget.
    disk_faults: Optional[DiskFaultInjector] = None
    #: Contract-validation tally (every study and replay sets it).
    contracts: Optional[ValidationReport] = None
    #: The dead-letter store for quarantined records (always present).
    quarantine: Optional[QuarantineStore] = None
    #: Supervised analysis reports (None unless the scorecard path ran).
    analyses: Optional[AnalysisResults] = None
    #: Stages that degraded instead of reporting.
    stage_failures: List[StageFailure] = field(default_factory=list)
    #: Sealed-archive summary (dir, counts, chain hash) when the run
    #: archived its crawl (None otherwise).
    archive: Optional[dict] = None


class Study:
    """Builds the world, deploys all sites, and runs modules 1 and 2.

    ``telemetry`` is the one switch for metrics, spans, events, the
    crawl-health watchdogs and (through its profiler) ``--profile``;
    without one the run records nothing, so benchmark timings are
    unaffected.
    """

    def __init__(self, config: Optional[StudyConfig] = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.config = config or StudyConfig()
        self._rng = RngTree(self.config.seed, name="study")
        self.telemetry = telemetry or NULL_TELEMETRY

    # -- module 1: collect marketplaces ------------------------------------

    def marketplaces_to_monitor(self) -> List[str]:
        """Triage the channel inventory (Section 3.1 / Table 9)."""
        selected = triage(websites())
        return [c.name for c in selected]

    # -- modules 1+2: run -----------------------------------------------------

    def run(self) -> StudyResult:
        with self.telemetry.tracer.span(
            "study", seed=self.config.seed, scale=self.config.scale
        ):
            return self._run_instrumented(self.telemetry)

    def _run_instrumented(self, telemetry: Telemetry) -> StudyResult:
        tracer = telemetry.tracer
        profiler = telemetry.profiler
        internet = Internet(telemetry=telemetry)
        telemetry.set_clock(internet.clock)

        # Chaos: interpose the fault injector between client and sites.
        # Sites still register against the real Internet (the injector
        # delegates); only the crawling client sees injected weather.
        fault_profile = resolve_profile(self.config.chaos_profile)
        injector: Optional[FaultInjector] = None
        network = internet
        if fault_profile.active:
            injector = FaultInjector(
                internet, fault_profile,
                seed=self.config.seed, telemetry=telemetry,
            )
            network = injector
        # Storage-plane chaos is independent of network chaos: the same
        # profile may carry either or both sets of rates.
        disk_faults: Optional[DiskFaultInjector] = None
        if fault_profile.disk_active:
            disk_faults = DiskFaultInjector(
                fault_profile, seed=self.config.seed, telemetry=telemetry,
            )

        with tracer.span("build_world"):
            world = WorldBuilder(self.config.world_config()).build()
        with tracer.span("deploy"):
            # Collection runs against the pre-ban state of the platforms;
            # the Section-8 status sweep at the end sees enforcement.
            platform_sites = deploy_platforms(
                internet, world, enforce_moderation=False
            )
            market_sites = deploy_public_marketplaces(internet, world)
            underground_sites = (
                deploy_underground(internet, world, self._rng.child("underground"))
                if self.config.include_underground
                else {}
            )

        # Crawl archive: the capture hook both clients write through.
        archive: Optional[ArchiveWriter] = None
        if self.config.archive_dir:
            archive = ArchiveWriter(
                self.config.archive_dir,
                internet.clock,
                telemetry=telemetry,
                resume=self.config.resume,
            )

        client = HttpClient(network, telemetry=telemetry, capture=archive)
        tor_client: Optional[HttpClient] = None
        if underground_sites:
            tor_client = HttpClient(
                network,
                client_id="manual-analyst",
                telemetry=telemetry,
                capture=archive,
                via_tor=True,
            )
        checkpoint_path: Optional[str] = None
        if self.config.checkpoint_dir:
            checkpoint_path = os.path.join(
                self.config.checkpoint_dir, "crawl_checkpoint.json"
            )
            if not self.config.resume and os.path.exists(checkpoint_path):
                # A fresh (non-resume) run must not silently continue a
                # previous crawl's state.
                os.remove(checkpoint_path)

        def begin_epoch(epoch: int) -> None:
            if injector is not None:
                injector.begin_iteration(epoch)
            if injector is not None or checkpoint_path:
                # Reset per-host transport state (breakers, retry budget,
                # robots cache) at the iteration boundary: iterations are
                # days apart in simulated time, and a resumed run must
                # enter iteration k with the same client state an
                # uninterrupted run would have.
                client.begin_epoch(epoch)

        def advance_iteration(iteration: int) -> None:
            set_iteration(market_sites, iteration)
            begin_epoch(iteration)

        watchdog: Optional[CrawlWatchdog] = None
        if telemetry.enabled:
            watchdog = CrawlWatchdog(
                telemetry=telemetry,
                clock=internet.clock,
                expected_counts=lambda: {
                    name: len(site.active_listings())
                    for name, site in market_sites.items()
                },
            )
        crawl = IterationCrawl(
            client=client,
            seed_urls=seed_urls(),
            set_iteration=advance_iteration,
            iterations=self.config.iterations,
            checkpoint_path=checkpoint_path,
            telemetry=telemetry,
            watchdog=watchdog,
            archive=archive,
            disk_faults=disk_faults,
        )

        def after_crawl() -> None:
            if watchdog is not None:
                watchdog.finish()
            if archive is not None:
                # Everything after the iteration crawl (payments,
                # profiles, sweep, underground) archives into one
                # post-collection index.
                archive.begin_phase(POST_COLLECTION_PHASE)
            # Post-crawl stages get their own fault epoch and fresh
            # client state.  Without this, a run resumed from an
            # already-complete checkpoint (which skips the crawl
            # entirely) would enter the payment/profile/underground
            # stages with different RNG-stream offsets than an
            # uninterrupted run — and diverge.
            begin_epoch(self.config.iterations)

        def seal_archive() -> Optional[dict]:
            # Collection is over: seal the archive (hash-chain the
            # indexes, GC unreferenced blobs, write archive.json).
            if archive is None:
                return None
            with tracer.span("archive_seal"):
                return archive.summary(archive.seal(self.config))

        result = collect_and_analyze(
            self.config, world, crawl, telemetry,
            prefix="",
            manual_client=tor_client,
            markets=list(underground_sites),
            solver_rng=self._rng.child("solver"),
            analyze=telemetry.enabled and self.config.scorecard_enabled,
            after_crawl=after_crawl,
            # The Section-8 sweep sees enforcement: bans are now visible.
            before_sweep=lambda: enable_moderation(platform_sites),
            end_collection=seal_archive,
        )
        if tor_client is not None:
            profiler.add_client("manual-analyst", tor_client.stats)
        profiler.add_client("crawler", client.stats)
        result.watchdog = watchdog
        result.fault_injector = injector
        result.disk_faults = disk_faults
        return result


def seed_urls() -> Dict[str, str]:
    """The iteration crawl's seeds: each marketplace's listing index."""
    return {
        name: f"http://{spec.host}/listings"
        for name, spec in MARKETPLACES.items()
    }


def _no_op() -> None:
    return None


def collect_and_analyze(
    config: StudyConfig,
    world: World,
    crawl: IterationCrawl,
    telemetry: Telemetry,
    *,
    prefix: str,
    manual_client,
    markets: Sequence[str],
    solver_rng: RngTree,
    analyze: bool,
    after_crawl: Callable[[], None] = _no_op,
    before_sweep: Callable[[], None] = _no_op,
    end_collection: Callable[[], Optional[dict]] = _no_op,
) -> StudyResult:
    """Module 2 then Module 3: the study's one phase sequence.

    Runs ``crawl`` (whose client also fetches payment pages, profiles
    and the status sweep), then ``manual_client`` over each underground
    market in ``markets``, then contracts, and — with ``analyze`` — the
    supervised analysis suite and the fidelity scorecard.  Each phase
    runs in a span named ``prefix + phase``.  The hooks run after the
    crawl, inside the sweep span before the sweep, and at the end of
    collection (its return value becomes ``StudyResult.archive``).
    Callers: :class:`Study` (live) and ``repro replay`` (archived).
    """
    tracer = telemetry.tracer
    profiler = telemetry.profiler
    client = crawl.client
    recording = telemetry if telemetry.enabled else None

    with tracer.span(prefix + "iteration_crawl"):
        dataset = crawl.run()
    profiler.add_counts(
        prefix + "iteration_crawl",
        pages=sum(r.pages_fetched for r in crawl.reports),
        records=len(dataset.listings),
    )
    after_crawl()

    # Payment pages, once per marketplace (Table 3).
    payments: Dict[str, List[Tuple[str, str]]] = {}
    with tracer.span(prefix + "payment_pages"):
        for name, url in seed_urls().items():
            crawler = MarketplaceCrawler(client, name, url, telemetry=telemetry)
            payments[name] = crawler.collect_payment_methods()
    profiler.add_counts(
        prefix + "payment_pages",
        records=sum(len(pairs) for pairs in payments.values()),
    )

    # Profile metadata + timelines for visible accounts, collected
    # while the accounts are still live.
    collector = ProfileCollector(client, telemetry=telemetry)
    with tracer.span(prefix + "profile_collection"):
        dataset.profiles, dataset.posts = collector.collect(dataset.listings)
    profiler.add_counts(
        prefix + "profile_collection",
        records=len(dataset.profiles) + len(dataset.posts),
    )

    # End-of-study status sweep (Section 8).
    with tracer.span(prefix + "status_sweep"):
        before_sweep()
        collector.sweep_status(dataset.profiles)
    profiler.add_counts(prefix + "status_sweep", records=len(dataset.profiles))

    # Underground manual-protocol collection.
    if markets:
        manual = UndergroundCollector(
            client=manual_client,
            solver=HumanSolver(solver_rng),
            telemetry=telemetry,
        )
        with tracer.span(prefix + "underground_collection"):
            for market in markets:
                dataset.underground.extend(
                    manual.collect_market(market, onion_host(market))
                )
        profiler.add_counts(
            prefix + "underground_collection", records=len(dataset.underground)
        )
    archive_summary = end_collection()

    # Contract boundary: validate everything collection produced before
    # any analysis sees it.  Quarantined records leave the dataset for
    # the dead-letter store.
    quarantine = QuarantineStore(recording, strict=config.strict_contracts)
    with tracer.span(prefix + "contracts"):
        contracts = validate_dataset(dataset, quarantine, recording)
    profiler.add_counts(prefix + "contracts", records=contracts.checked_total)

    result = StudyResult(
        dataset=dataset,
        world=world,
        active_per_iteration=crawl.active_per_iteration,
        cumulative_per_iteration=crawl.cumulative_per_iteration,
        payment_methods=payments,
        crawl_reports=crawl.reports,
        simulated_seconds=client.clock.now(),
        telemetry=telemetry,
        contracts=contracts,
        quarantine=quarantine,
        archive=archive_summary,
    )
    if not analyze:
        return result
    # Fidelity scorecard: run the supervised analysis suite, then score
    # the collected dataset against the world's ground truth and the
    # paper-shape targets (§quality).  A failed stage degrades its
    # scorecard sections instead of killing the run.
    supervisor = StageSupervisor(
        recording,
        strict=config.strict_contracts,
        fail_stages=config.fail_stages,
    )
    with tracer.span(prefix + "analysis_suite"):
        result.analyses = run_analysis_suite(
            dataset, supervisor, telemetry=telemetry,
        )
    result.stage_failures = list(supervisor.failures)
    with tracer.span(prefix + "scorecard"):
        result.scorecard = compute_scorecard(result, result.analyses)
    result.scorecard.register_gauges(telemetry.metrics)
    return result


__all__ = [
    "Study",
    "StudyConfig",
    "StudyResult",
    "collect_and_analyze",
    "seed_urls",
]
