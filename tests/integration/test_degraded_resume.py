"""Supervisor + resume interplay (the PR-4 headline guarantee).

A run with a deliberately-failing analysis stage must degrade — typed
``StageFailure``, degraded scorecard — and stay deterministic: a twin
run, and a killed-and-resumed run, must produce byte-identical
``scorecard.json`` / ``events.jsonl`` and an identical dataset.
"""

import json

import pytest

import repro.core.pipeline as pipeline_module
from repro.core.pipeline import Study, StudyConfig
from repro.obs.quality import write_scorecard
from repro.obs.telemetry import Telemetry

CONFIG = dict(
    seed=97, scale=0.01, iterations=3, include_underground=False,
    chaos_profile="moderate",
    fail_stages=("network",),
)


class SimulatedKill(RuntimeError):
    """Stands in for a SIGKILL at an iteration boundary."""


def _run(tmp_path, label, config):
    telemetry = Telemetry()
    result = Study(config, telemetry=telemetry).run()
    out = tmp_path / label
    telemetry.export(str(out))
    write_scorecard(str(out), result.scorecard)
    return result, out


def test_failing_stage_degrades_and_stays_deterministic(tmp_path, monkeypatch):
    config = StudyConfig(**CONFIG)
    reference, ref_dir = _run(tmp_path, "reference", config)

    # The failing stage degraded, not died.
    assert [f.stage for f in reference.stage_failures] == ["network"]
    assert reference.stage_failures[0].kind == "InjectedStageError"
    assert reference.analyses.report("network") is None
    assert reference.analyses.report("anatomy") is not None
    entry = reference.scorecard.entry("analysis_stage_coverage")
    assert entry is not None and entry.value == pytest.approx(8 / 9)
    assert not entry.passed  # degraded run is visibly out of band
    # network-derived scores are absent, not stale
    assert reference.scorecard.entry("network_pair_precision") is None
    # supervisor decisions were recorded as events
    kinds = [e.kind for e in reference.telemetry.events.events]
    assert "stage.failed" in kinds

    # Twin same-seed degraded run: byte-identical artifacts.
    twin, twin_dir = _run(tmp_path, "twin", StudyConfig(**CONFIG))
    assert (ref_dir / "scorecard.json").read_bytes() == \
        (twin_dir / "scorecard.json").read_bytes()
    assert (ref_dir / "events.jsonl").read_bytes() == \
        (twin_dir / "events.jsonl").read_bytes()
    assert twin.dataset.listings == reference.dataset.listings

    # Kill at iteration 2, resume: still byte-identical to the
    # uninterrupted degraded run.
    ckpt = tmp_path / "ckpt-b"
    real_set_iteration = pipeline_module.set_iteration

    def dying_set_iteration(sites, iteration):
        if iteration == 2:
            raise SimulatedKill("killed at iteration 2")
        real_set_iteration(sites, iteration)

    monkeypatch.setattr(pipeline_module, "set_iteration", dying_set_iteration)
    with pytest.raises(SimulatedKill):
        Study(
            StudyConfig(checkpoint_dir=str(ckpt), **CONFIG),
            telemetry=Telemetry(),
        ).run()
    monkeypatch.setattr(pipeline_module, "set_iteration", real_set_iteration)
    assert (ckpt / "crawl_checkpoint.json").exists()

    resumed, resumed_dir = _run(
        tmp_path, "resumed",
        StudyConfig(checkpoint_dir=str(ckpt), resume=True, **CONFIG),
    )
    assert [f.stage for f in resumed.stage_failures] == ["network"]
    assert (ref_dir / "scorecard.json").read_bytes() == \
        (resumed_dir / "scorecard.json").read_bytes()
    assert resumed.dataset.listings == reference.dataset.listings
    assert resumed.dataset.profiles == reference.dataset.profiles
    assert resumed.simulated_seconds == reference.simulated_seconds

    # The scorecard JSON itself is well-formed and carries the coverage
    # entries CI gates on.
    card = json.loads((resumed_dir / "scorecard.json").read_text())
    names = {e["name"] for e in card["entries"]}
    assert {"analysis_stage_coverage", "contract_record_coverage"} <= names
