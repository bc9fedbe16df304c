"""Unit tests for the stage supervisor and the supervised suite."""

import pytest

from repro.analysis.suite import STAGE_NAMES, run_analysis_suite
from repro.contracts import StageFailure, StageSupervisor
from repro.core.dataset import MeasurementDataset
from repro.obs.telemetry import Telemetry


def test_successful_stage_passes_result_through():
    supervisor = StageSupervisor()
    assert supervisor.run("stage", lambda x: x + 1, 41) == 42
    assert supervisor.failures == []


def test_deterministic_error_degrades_to_stage_failure():
    supervisor = StageSupervisor()

    def boom():
        raise ValueError("bad shape")

    assert supervisor.run("anatomy", boom) is None
    failure = supervisor.failure_for("anatomy")
    assert failure is not None
    assert failure.kind == "ValueError"
    assert failure.detail == "bad shape"
    assert failure.attempts == 1
    assert failure.disposition == "skipped"


def test_deterministic_error_is_not_retried():
    # Stages are deterministic functions of the dataset: every error,
    # an OSError included, gets exactly one attempt.
    supervisor = StageSupervisor()
    calls = []

    def boom(error):
        calls.append(1)
        raise error

    supervisor.run("keys", boom, KeyError("missing"))
    supervisor.run("disk", boom, OSError("gone"))
    assert len(calls) == 2
    assert [(f.stage, f.kind, f.attempts) for f in supervisor.failures] == [
        ("keys", "KeyError", 1), ("disk", "OSError", 1),
    ]


def test_strict_mode_reraises():
    supervisor = StageSupervisor(strict=True)

    def boom():
        raise ValueError("bad")

    with pytest.raises(ValueError):
        supervisor.run("stage", boom)
    # The failure is still recorded before re-raising.
    assert supervisor.failure_for("stage") is not None


def test_fail_stages_injection():
    supervisor = StageSupervisor(fail_stages=("network",))
    assert supervisor.run("anatomy", lambda: "ok") == "ok"
    assert supervisor.run("network", lambda: "ok") is None
    failure = supervisor.failure_for("network")
    assert failure.kind == "InjectedStageError"
    assert failure.attempts == 1


def test_events_emitted_per_decision():
    telemetry = Telemetry()
    supervisor = StageSupervisor(telemetry)
    supervisor.run("good", lambda: 1)
    supervisor.run("bad", lambda: 1 / 0)
    supervisor.run("also_good", lambda: 2)
    events = [(e.kind, e.fields["stage"], e.fields["attempts"])
              for e in telemetry.events.events]
    assert events == [
        ("stage.ok", "good", 1),
        ("stage.failed", "bad", 1),
        ("stage.ok", "also_good", 1),
    ]
    metric = telemetry.metrics.counter(
        "stage_failures_total", labels=("stage", "kind")
    )
    assert metric.value(stage="bad", kind="ZeroDivisionError") == 1


def test_stage_failure_round_trip():
    failure = StageFailure(
        stage="network", kind="ValueError", detail="x", attempts=2,
    )
    assert StageFailure.from_dict(failure.to_dict()) == failure


# -- the supervised suite ---------------------------------------------------

def test_suite_runs_all_nine_stages_on_empty_dataset():
    supervisor = StageSupervisor()
    results = run_analysis_suite(MeasurementDataset(), supervisor)
    assert set(results.reports) == set(STAGE_NAMES)
    assert len(STAGE_NAMES) == 9
    assert results.failures == []
    assert results.coverage() == 1.0


def test_suite_degrades_failed_stage_and_continues(dataset):
    supervisor = StageSupervisor(fail_stages=("network",))
    results = run_analysis_suite(dataset, supervisor)
    assert results.report("network") is None
    assert results.failed("network")
    # Everything else still reported; indicators ran without clusters.
    assert results.report("anatomy") is not None
    assert results.report("indicators") is not None
    assert results.coverage() == pytest.approx(8 / 9)
    assert [f.stage for f in results.failures] == ["network"]
