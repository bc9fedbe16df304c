"""Acceptance: live crawl → archive → offline replay, byte-identical.

A study run with ``archive_dir`` set records every HTTP exchange;
``run_replay`` then re-executes Module-2 extraction and the full
analysis suite from the archive alone.  The replay must deploy no
synthetic Internet at all (asserted by poisoning the ``Internet``
constructor) and must reproduce the live run's dataset, meta series,
simulated clock, and fidelity scorecard exactly.
"""

import dataclasses
import json

import pytest

from repro.archive import ArchiveError, ArchiveReader, run_replay
from repro.core.dataset import MeasurementDataset
from repro.core.pipeline import Study, StudyConfig
from repro.obs import Telemetry

CONFIG = dict(seed=41, scale=0.02, iterations=2, include_underground=True)


@pytest.fixture(scope="module")
def archived_run(tmp_path_factory):
    archive_dir = str(tmp_path_factory.mktemp("crawl_archive"))
    # Telemetry on so the live run computes the scorecard to compare
    # against (replay always computes one).
    live = Study(
        StudyConfig(archive_dir=archive_dir, **CONFIG), telemetry=Telemetry()
    ).run()
    return live, archive_dir


def test_archive_seals_and_verifies_clean(archived_run):
    live, archive_dir = archived_run
    reader = ArchiveReader.open(archive_dir)
    assert reader.verify() == []
    assert live.archive is not None and live.archive["sealed"] is True
    assert live.archive["chain_sha256"] == reader.manifest["chain_sha256"]


def test_replay_touches_no_synthetic_internet(archived_run, monkeypatch):
    """The whole point of the archive: analysis without the crawl stack.

    Any attempt to build an ``Internet`` (and therefore deploy sites,
    inject faults, or back off retries) blows up the replay."""
    _live, archive_dir = archived_run

    import repro.web.server as server_module

    def no_network(self, *args, **kwargs):
        raise AssertionError("replay tried to construct a synthetic Internet")

    monkeypatch.setattr(server_module.Internet, "__init__", no_network)
    monkeypatch.setattr(server_module.Site, "__init__", no_network)
    result = run_replay(archive_dir)
    assert result.dataset.listings


def assert_replay_matches(live, replayed):
    for records in dataclasses.fields(MeasurementDataset):
        assert (getattr(replayed.dataset, records.name)
                == getattr(live.dataset, records.name)), records.name
    assert replayed.active_per_iteration == live.active_per_iteration
    assert replayed.cumulative_per_iteration == live.cumulative_per_iteration
    assert replayed.payment_methods == live.payment_methods
    # Float-exact, not approximate: the replay clock jumps to archived
    # instants instead of re-simulating waits.
    assert replayed.simulated_seconds == live.simulated_seconds
    assert replayed.scorecard is not None and live.scorecard is not None
    assert (
        json.dumps(replayed.scorecard.to_dict(), sort_keys=True)
        == json.dumps(live.scorecard.to_dict(), sort_keys=True)
    )


def test_replay_is_byte_identical_to_live(archived_run):
    live, archive_dir = archived_run
    assert_replay_matches(live, run_replay(archive_dir))


def test_chaos_replay_is_byte_identical_to_live(tmp_path):
    """Under injected faults the live client retries, trips breakers and
    enters a fresh fault epoch after the crawl; the archive holds what
    it finally saw, so the replay still reproduces the run exactly."""
    archive_dir = str(tmp_path / "crawl_archive")
    live = Study(StudyConfig(
        seed=7, scale=0.01, iterations=2, include_underground=True,
        chaos_profile="moderate", archive_dir=archive_dir,
    ), telemetry=Telemetry()).run()
    assert live.fault_injector is not None and live.fault_injector.counts
    assert_replay_matches(live, run_replay(archive_dir))


def test_replay_runs_the_live_phase_sequence(archived_run):
    """Live and replay share one phase sequence: the live stages, less
    its world setup and archive seal, are the replay stages."""
    live, archive_dir = archived_run
    telemetry = Telemetry()
    run_replay(archive_dir, telemetry=telemetry)
    live_phases = [
        row["name"] for row in live.telemetry.tracer.stage_summary()
        if row["name"] not in ("build_world", "deploy", "archive_seal")
    ]
    assert [
        row["name"] for row in telemetry.tracer.stage_summary()
    ] == ["replay." + name for name in live_phases]


def test_replay_analyses_match_live(archived_run):
    live, archive_dir = archived_run
    replayed = run_replay(archive_dir)
    assert replayed.contracts is not None
    assert replayed.stage_failures == live.stage_failures
    assert sorted(replayed.analyses.reports) == sorted(live.analyses.reports)
    assert replayed.analyses.coverage() == live.analyses.coverage()


def test_replay_trace_stages_are_the_replay_phases(archived_run):
    _live, archive_dir = archived_run
    telemetry = Telemetry()
    run_replay(archive_dir, telemetry=telemetry)
    assert [row["name"] for row in telemetry.tracer.stage_summary()] == [
        "replay.iteration_crawl", "replay.payment_pages",
        "replay.profile_collection", "replay.status_sweep",
        "replay.underground_collection", "replay.contracts",
        "replay.analysis_suite", "replay.scorecard",
    ]
    spans = telemetry.tracer.spans
    (suite,) = [s for s in spans if s.name == "replay.analysis_suite"]
    stages = [s for s in spans if s.name.startswith("stage.")]
    assert len(stages) == 9
    assert all(s.parent_id == suite.span_id for s in stages)


def test_replay_refuses_unsealed_archive(tmp_path):
    with pytest.raises(ArchiveError):
        run_replay(str(tmp_path))
