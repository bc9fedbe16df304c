"""Offline replay: re-run extraction + analysis from a sealed archive.

The archive's ``outcome`` records are, per client, exactly the sequence
of results the live run's :class:`~repro.web.client.HttpClient` handed
to the crawlers — final responses after redirects and retries, or the
errors it raised.  :class:`ReplayClient` exposes the same ``get``/
``post``/``request`` surface and feeds that sequence back, validating on
every call that the replayed code asked for the same request the live
run made.  The crawlers, profile collector, and underground collector
then re-run *for real* — Module-2 extraction genuinely re-executes over
the archived bytes — followed by contracts, the supervised nine-stage
analysis suite, and the fidelity scorecard.

Nothing else from the live run happens: no synthetic Internet is built,
no sites deploy, no faults inject, no politeness waits or retries burn
simulated time.  The :class:`ReplayClock` instead jumps straight to each
outcome's archived ``sim_at``, so every timestamp-derived artifact
(including ``simulated_seconds``) is byte-identical to the live run's.

The ground-truth world the scorecard needs is rebuilt purely from the
archived seed/scale config — world construction never touches the
network in the live pipeline either.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Type

from repro.archive.reader import ArchiveReader
from repro.archive.records import ExchangeRecord
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.util.simtime import SimClock
from repro.web.http import (
    CircuitOpen,
    ConnectionFailed,
    HttpError,
    RequestRejected,
    RequestTimeout,
    Response,
    TooManyRedirects,
)


class ReplayError(Exception):
    """The replay could not run to completion against the archive."""


class ReplayMismatch(ReplayError):
    """The replayed code diverged from the archived request sequence."""


#: Error type names archived in outcome records, mapped back to the
#: exception classes the live client raised.
_ERROR_TYPES: Dict[str, Type[HttpError]] = {
    "ConnectionFailed": ConnectionFailed,
    "RequestTimeout": RequestTimeout,
    "CircuitOpen": CircuitOpen,
    "TooManyRedirects": TooManyRedirects,
    "RequestRejected": RequestRejected,
    "HttpError": HttpError,
}


class ReplayClock(SimClock):
    """A simulated clock that can jump forward to archived instants.

    Replayed code still *advances* it (the underground solver charges
    its human solving pace), but each delivered outcome then pins the
    clock to the exact ``sim_at`` the live run recorded — absorbing all
    the politeness, backoff, and latency time replay skips.
    """

    def set_at_least(self, value: float) -> None:
        if value > self._now:
            self._now = float(value)


class ReplayClient:
    """Serves one client's archived outcome stream through the
    :class:`~repro.web.client.HttpClient` interface the collectors use."""

    def __init__(
        self,
        reader: ArchiveReader,
        outcomes: List[ExchangeRecord],
        client_id: str,
        clock: ReplayClock,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self._reader = reader
        self._outcomes = list(outcomes)
        self._cursor = 0
        self.client_id = client_id
        self._clock = clock
        self.telemetry = telemetry or NULL_TELEMETRY

    # -- HttpClient surface --------------------------------------------------

    @property
    def clock(self) -> ReplayClock:
        return self._clock

    def begin_epoch(self, epoch: int) -> None:
        """No transport state to reset offline."""

    def get(self, url: str, **params: str) -> Response:
        return self.request(
            "GET", url, params={k: str(v) for k, v in params.items()}
        )

    def post(self, url: str, form: Optional[Dict[str, str]] = None) -> Response:
        return self.request("POST", url, form=form or {})

    def request(
        self,
        method: str,
        url: str,
        params: Optional[Dict[str, str]] = None,
        form: Optional[Dict[str, str]] = None,
    ) -> Response:
        record = self._next(method, url, params or {}, form or {})
        self._clock.set_at_least(record.sim_at)
        if record.error is not None:
            error_type = _ERROR_TYPES.get(record.error["type"], HttpError)
            raise error_type(record.error["message"])
        return self._reader.response_for(record)

    # -- stream bookkeeping --------------------------------------------------

    @property
    def remaining(self) -> int:
        return len(self._outcomes) - self._cursor

    def _next(
        self,
        method: str,
        url: str,
        params: Dict[str, str],
        form: Dict[str, str],
    ) -> ExchangeRecord:
        if self._cursor >= len(self._outcomes):
            raise ReplayMismatch(
                f"client {self.client_id!r} requested {method} {url} but "
                "the archived outcome stream is exhausted — the replayed "
                "code diverged from the recorded run"
            )
        record = self._outcomes[self._cursor]
        requested = (method.upper(), url, params, form)
        archived = (record.method, record.url, record.params, record.form)
        if requested != archived:
            raise ReplayMismatch(
                f"client {self.client_id!r} diverged at seq={record.seq}: "
                f"requested {method.upper()} {url} "
                f"params={params} form={form}, archive recorded "
                f"{record.method} {record.url} "
                f"params={record.params} form={record.form}"
            )
        self._cursor += 1
        return record


def _study_config_from(manifest_config: dict):
    # Imported here, not at module top: repro.core.pipeline imports the
    # archive writer, so a top-level import would be circular.
    from repro.core.pipeline import StudyConfig

    return StudyConfig(
        seed=int(manifest_config["seed"]),
        scale=float(manifest_config["scale"]),
        iterations=int(manifest_config["iterations"]),
        include_underground=bool(manifest_config["include_underground"]),
    )


def run_replay(
    archive_dir: str, telemetry: Optional[Telemetry] = None
):
    """Re-run Module-2 extraction + the full analysis suite offline.

    Returns a :class:`StudyResult` whose dataset, meta series, and
    scorecard are byte-identical to the live run that wrote the archive.
    Raises :class:`~repro.archive.records.ArchiveError` for a missing or
    unsealed archive, :class:`ReplayMismatch` when the replayed code
    requests anything other than the recorded sequence.  The run is
    traced under one ``replay`` root span, so its ``replay.*`` phases
    are the trace's stages.
    """
    telemetry = telemetry or NULL_TELEMETRY
    with telemetry.tracer.span("replay"):
        return _replay(archive_dir, telemetry)


def _replay(archive_dir: str, telemetry: Telemetry):
    from repro.analysis.suite import run_analysis_suite
    from repro.core.pipeline import StudyResult
    from repro.contracts.quarantine import QuarantineStore
    from repro.contracts.schema import validate_dataset
    from repro.contracts.supervisor import StageSupervisor
    from repro.crawler.crawler import IterationCrawl, MarketplaceCrawler
    from repro.crawler.profile_collector import ProfileCollector
    from repro.crawler.underground_collector import UndergroundCollector
    from repro.marketplaces.registry import MARKETPLACES
    from repro.marketplaces.underground import onion_host
    from repro.obs.quality import compute_scorecard
    from repro.synthetic.world import WorldBuilder
    from repro.util.rng import RngTree
    from repro.web.captcha import HumanSolver

    reader = ArchiveReader.open(archive_dir)
    config = _study_config_from(reader.config)
    clock = ReplayClock()
    telemetry.set_clock(clock)

    # Ground truth for the scorecard: the world is a pure function of the
    # archived seed/scale config — no network involved, live or offline.
    world = WorldBuilder(config.world_config()).build()

    streams = reader.outcome_streams()
    clients: List[ReplayClient] = []

    def replay_client(client_id: str) -> ReplayClient:
        client = ReplayClient(
            reader, streams.get(client_id, []), client_id, clock, telemetry
        )
        clients.append(client)
        return client

    client = replay_client("crawler")
    crawl = IterationCrawl(
        client=client,
        seed_urls={
            name: f"http://{spec.host}/listings"
            for name, spec in MARKETPLACES.items()
        },
        set_iteration=lambda iteration: None,  # no sites to advance
        iterations=config.iterations,
        telemetry=telemetry,
    )
    with telemetry.tracer.span("replay.iteration_crawl"):
        dataset = crawl.run()

    payments: Dict[str, List[Tuple[str, str]]] = {}
    with telemetry.tracer.span("replay.payment_pages"):
        for name, spec in MARKETPLACES.items():
            crawler = MarketplaceCrawler(
                client, name, f"http://{spec.host}/listings",
                telemetry=telemetry,
            )
            payments[name] = crawler.collect_payment_methods()

    collector = ProfileCollector(client, telemetry=telemetry)
    with telemetry.tracer.span("replay.profile_collection"):
        profiles, posts = collector.collect(dataset.listings)
    dataset.profiles = profiles
    dataset.posts = posts
    with telemetry.tracer.span("replay.status_sweep"):
        collector.sweep_status(dataset.profiles)

    if config.include_underground and "manual-analyst" in streams:
        tor_client = replay_client("manual-analyst")
        # Same solver RNG the live pipeline derives: children of an
        # RngTree come from (seed, name), so skipping the deploy stage
        # does not perturb the stream.
        solver_rng = RngTree(config.seed, name="study").child("solver")
        manual = UndergroundCollector(
            client=tor_client,
            solver=HumanSolver(solver_rng),
            telemetry=telemetry,
        )
        markets = sorted({
            posting.market for posting in world.underground_postings
        })
        with telemetry.tracer.span("replay.underground_collection"):
            for market in markets:
                dataset.underground.extend(
                    manual.collect_market(market, onion_host(market))
                )

    # Contract boundary re-validates the replayed records, exactly as the
    # live run validated the originals.
    quarantine = QuarantineStore(telemetry if telemetry.enabled else None)
    with telemetry.tracer.span("replay.contracts"):
        contracts = validate_dataset(
            dataset, quarantine, telemetry if telemetry.enabled else None
        )

    for replayed in clients:
        if replayed.remaining:
            raise ReplayMismatch(
                f"client {replayed.client_id!r} left {replayed.remaining} "
                "archived outcomes unconsumed — the replayed code diverged "
                "from the recorded run"
            )

    # Pin the clock to the archived end-of-run instant so
    # ``simulated_seconds`` matches even if the final archived exchanges
    # carried no outcome for this stream.
    clock.set_at_least(reader.sim_seconds)

    result = StudyResult(
        dataset=dataset,
        world=world,
        active_per_iteration=crawl.active_per_iteration,
        cumulative_per_iteration=crawl.cumulative_per_iteration,
        payment_methods=payments,
        crawl_reports=crawl.reports,
        simulated_seconds=clock.now(),
        telemetry=telemetry,
        contracts=contracts,
        quarantine=quarantine,
        archive=reader.summary(),
    )
    # Replay exists to analyze many times: always run the supervised
    # suite and score the result, telemetry or not.
    supervisor = StageSupervisor(telemetry if telemetry.enabled else None)
    with telemetry.tracer.span("replay.analysis_suite"):
        result.analyses = run_analysis_suite(
            dataset, supervisor, telemetry=telemetry
        )
    result.stage_failures = list(supervisor.failures)
    with telemetry.tracer.span("replay.scorecard"):
        result.scorecard = compute_scorecard(result, analyses=result.analyses)
    if telemetry.enabled:
        result.scorecard.register_gauges(telemetry.metrics)
    return result


__all__ = [
    "ReplayClient",
    "ReplayClock",
    "ReplayError",
    "ReplayMismatch",
    "run_replay",
]
