"""Offline replay: re-run extraction + analysis from a sealed archive.

The archive's ``outcome`` records are, per client, exactly the sequence
of results the live run's :class:`~repro.web.client.HttpClient` handed
to the crawlers — final responses after redirects and retries, or the
errors it raised.  :class:`ReplayClient` exposes the same ``get``/
``post``/``request`` surface and feeds that sequence back, validating on
every call that the replayed code asked for the same request the live
run made.  :func:`run_replay` hands those clients to the pipeline's own phase
sequence (:func:`~repro.core.pipeline.collect_and_analyze`, the function
a live :class:`~repro.core.pipeline.Study` runs), so the crawlers,
profile collector, and underground collector re-run *for real* —
Module-2 extraction genuinely re-executes over the archived bytes —
followed by contracts, the supervised nine-stage analysis suite, and
the fidelity scorecard, with no second copy of the sequence to drift.

Nothing else from the live run happens: no synthetic Internet is built,
no sites deploy, no faults inject, no retries burn simulated time.  The :class:`ReplayClock` instead jumps straight to each
outcome's archived ``sim_at``, so every timestamp-derived artifact
(including ``simulated_seconds``) is byte-identical to the live run's.

The ground-truth world the scorecard needs is rebuilt purely from the
archived seed/scale config — world construction never touches the
network in the live pipeline either.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type

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
    the backoff and latency time replay skips.
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


def study_config_from(manifest_config: dict):
    """The :class:`StudyConfig` an archive's ``config`` section records.

    Archives written before chaos profiles were recorded replay as
    ``"off"``.
    """
    # Imported here, not at module top: repro.core.pipeline imports the
    # archive writer, so a top-level import would be circular.
    from repro.core.pipeline import StudyConfig

    return StudyConfig(
        seed=int(manifest_config["seed"]),
        scale=float(manifest_config["scale"]),
        iterations=int(manifest_config["iterations"]),
        include_underground=bool(manifest_config["include_underground"]),
        chaos_profile=str(manifest_config.get("chaos_profile", "off")),
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
    from repro.core.pipeline import collect_and_analyze, seed_urls
    from repro.crawler.crawler import IterationCrawl
    from repro.synthetic.world import WorldBuilder
    from repro.util.rng import RngTree

    reader = ArchiveReader.open(archive_dir)
    config = study_config_from(reader.config)
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

    crawl = IterationCrawl(
        client=replay_client("crawler"),
        seed_urls=seed_urls(),
        set_iteration=lambda iteration: None,  # no sites to advance
        iterations=config.iterations,
        telemetry=telemetry,
    )
    # The live run deploys one forum per market with postings, in sorted
    # order, and archives a manual-analyst stream only when it has any.
    markets: List[str] = []
    manual_client: Optional[ReplayClient] = None
    if config.include_underground and "manual-analyst" in streams:
        markets = sorted({
            posting.market for posting in world.underground_postings
        })
        manual_client = replay_client("manual-analyst")

    def end_collection() -> dict:
        for replayed in clients:
            if replayed.remaining:
                raise ReplayMismatch(
                    f"client {replayed.client_id!r} left {replayed.remaining} "
                    "archived outcomes unconsumed — the replayed code diverged "
                    "from the recorded run"
                )
        # Pin the clock to the archived end-of-run instant so
        # ``simulated_seconds`` matches even if the final archived
        # exchanges carried no outcome for this stream.
        clock.set_at_least(reader.sim_seconds)
        return reader.summary()

    # Replay exists to analyze many times: always run the supervised
    # suite and score the result, telemetry or not.
    return collect_and_analyze(
        config, world, crawl, telemetry,
        prefix="replay.",
        manual_client=manual_client,
        markets=markets,
        # Children of an RngTree come from (seed, name), so this is the
        # live run's solver stream although no deploy stage ran.
        solver_rng=RngTree(config.seed, name="study").child("solver"),
        analyze=True,
        end_collection=end_collection,
    )


__all__ = [
    "ReplayClient",
    "ReplayClock",
    "ReplayError",
    "ReplayMismatch",
    "run_replay",
    "study_config_from",
]
