"""The monitor kill-and-restart soak drill (the ISSUE's acceptance bar).

Two same-config daemons run a 3-cycle campaign:

* **twin A** runs uninterrupted;
* **twin B** is SIGKILL-ed mid-cycle-1 (simulated by a
  ``BaseException`` raised from the ``before_ingest`` hook — like a
  real SIGKILL it skips the supervisor's ``except Exception`` fault
  boundary, leaving the ledger torn), restarted, and left to recover:
  quarantine the torn partial run dir, re-plan the cycle, finish the
  campaign.

Afterwards twin B's ledger must equal twin A's **byte for byte** once
the torn cycle's pre-crash lines (its first ``planned``/``running``
epoch and the ``quarantined`` marker) are dropped, and both registries
must hold exactly the successful cycles with identical ids, seqs and
simulated-time metrics.  The other acceptance drills — a forced
``--fail-stage`` cycle that is recorded ``failed`` without stopping the
campaign, graceful signal shutdown, retention mid-campaign — live here
too because they need real pipeline cycles.
"""

import json
import os
import signal

import pytest

from repro.monitor.daemon import (
    EXIT_OK,
    EXIT_SIGNAL,
    MonitorConfig,
    MonitorDaemon,
)
from repro.monitor.ledger import ScheduleLedger
from repro.obs.registry import RunRegistry

#: Small but complete: full pipeline, scorecard on (alerts need it).
CONFIG = dict(
    cycles=3,
    seed=1307,
    scale=0.01,
    iterations=2,
    include_underground=False,
)


class SimulatedKill(BaseException):
    """SIGKILL: not an Exception, so no fault boundary may absorb it."""


def make_daemon(state_dir, hooks=None, **overrides):
    merged = dict(CONFIG)
    merged.update(overrides)
    config = MonitorConfig(state_dir=str(state_dir), **merged)
    return MonitorDaemon(config, printer=lambda line: None, hooks=hooks)


def ledger_lines(state_dir):
    with open(os.path.join(str(state_dir), "ledger.jsonl")) as handle:
        return handle.read().splitlines()


def recovered_view(lines):
    """Drop a torn cycle's pre-crash epoch: everything the quarantine
    marker invalidated (its earlier planned/running lines) plus the
    marker itself.  What remains is the history an uninterrupted twin
    would have written."""
    quarantined_at = {}
    for index, line in enumerate(lines):
        record = json.loads(line)
        if record.get("status") == "quarantined":
            quarantined_at[record["cycle"]] = index
    kept = []
    for index, line in enumerate(lines):
        record = json.loads(line)
        cycle = record.get("cycle")
        if record.get("status") == "quarantined":
            continue
        if cycle in quarantined_at and index < quarantined_at[cycle] \
                and record.get("status") in ("planned", "running"):
            continue
        kept.append(line)
    return kept


def registry_facts(state_dir):
    """The deterministic registry content: rows + sim-time metrics."""
    path = os.path.join(str(state_dir), "runs.sqlite")
    with RunRegistry.open_existing(path) as registry:
        rows = [(r.seq, r.run_id, r.seed, r.scorecard_passed)
                for r in registry.runs()]
        sim = registry.series("run.simulated_seconds")
    return rows, sim


class TestKillAndRestartSoak:
    @pytest.fixture(scope="class")
    def twins(self, tmp_path_factory):
        """Run both twins once; every assertion shares the result."""
        state_a = tmp_path_factory.mktemp("monitor-a")
        state_b = tmp_path_factory.mktemp("monitor-b")

        assert make_daemon(state_a).run() == EXIT_OK

        def kill_mid_cycle_1(cycle, _attempt):
            if cycle == 1:
                raise SimulatedKill()

        with pytest.raises(SimulatedKill):
            make_daemon(state_b,
                        hooks={"before_ingest": kill_mid_cycle_1}).run()
        # A real SIGKILL leaves the lock file behind; recreate it so the
        # restart also exercises own-pid stale-lock reclamation.
        with open(os.path.join(str(state_b), "monitor.lock"), "w") as fh:
            fh.write(f"{os.getpid()}\n")
        assert make_daemon(state_b).run() == EXIT_OK
        return state_a, state_b

    def test_torn_cycle_quarantined(self, twins):
        _state_a, state_b = twins
        ledger = ScheduleLedger.read(
            os.path.join(str(state_b), "ledger.jsonl")
        )
        state = ledger.cycle_states()[1]
        assert state.quarantined
        assert state.status == "ingested"  # re-run succeeded
        # The partial pre-crash artifacts were preserved as evidence:
        # the kill fired after the manifest was written, before ingest.
        quarantined = os.path.join(str(state_b), "quarantine",
                                   "cycle-000001")
        assert os.path.exists(
            os.path.join(quarantined, "manifest.json")
        )

    def test_ledger_byte_determinism_modulo_torn_cycle(self, twins):
        state_a, state_b = twins
        lines_a = ledger_lines(state_a)
        lines_b = ledger_lines(state_b)
        assert len(lines_b) == len(lines_a) + 3  # running+quarantined+planned
        assert recovered_view(lines_b) == lines_a

    def test_registries_identical(self, twins):
        state_a, state_b = twins
        rows_a, sim_a = registry_facts(state_a)
        rows_b, sim_b = registry_facts(state_b)
        assert rows_a == rows_b
        assert sim_a == sim_b
        assert [row[1] for row in rows_a] == [
            "cycle-000000", "cycle-000001", "cycle-000002",
        ]

    def test_every_cycle_has_alerts_artifact(self, twins):
        _state_a, state_b = twins
        for cycle in range(3):
            path = os.path.join(str(state_b), "cycles",
                                f"cycle-{cycle:06d}", "alerts.json")
            document = json.load(open(path))
            assert document["schema"] == "repro.alerts/v1"
            assert document["run_id"] == f"cycle-{cycle:06d}"

    def test_locks_released(self, twins):
        for state_dir in twins:
            assert not os.path.exists(
                os.path.join(str(state_dir), "monitor.lock")
            )


class TestForcedFailureDrill:
    def test_failed_cycle_does_not_stop_campaign(self, tmp_path):
        daemon = make_daemon(
            tmp_path / "state",
            fail_cycles=(1,), fail_stages=("anatomy",),
        )
        assert daemon.run() == EXIT_OK
        ledger = ScheduleLedger.read(daemon.ledger_path)
        states = ledger.cycle_states()
        assert states[0].status == "ingested"
        assert states[1].status == "failed"
        assert states[1].detail["reason"] == "degraded"
        assert "anatomy" in states[1].detail["detail"]
        assert states[2].status == "ingested"
        # Only the successful cycles reached the registry.
        with RunRegistry.open_existing(daemon.registry_path) as registry:
            run_ids = [row.run_id for row in registry.runs()]
        assert run_ids == ["cycle-000000", "cycle-000002"]
        # The failed cycle kept one attempt: a degraded analysis suite
        # is deterministic, so retrying it would fail identically.
        assert states[1].detail["attempts"] == 1


class TestGracefulSignal:
    def test_sigterm_finishes_cycle_then_stops(self, tmp_path):
        def request_stop(_cycle, _attempt):
            daemon._on_signal(signal.SIGTERM, None)

        daemon = make_daemon(tmp_path / "state",
                             hooks={"before_ingest": request_stop})
        assert daemon.run() == EXIT_SIGNAL
        ledger = ScheduleLedger.read(daemon.ledger_path)
        # The in-flight cycle completed (graceful), nothing after ran.
        assert ledger.cycle_states()[0].status == "ingested"
        assert 1 not in ledger.cycle_states()
        # The campaign resumes exactly where it stopped.
        resumed = make_daemon(tmp_path / "state")
        assert resumed.run() == EXIT_OK
        statuses = {c: s.status
                    for c, s in ScheduleLedger.read(
                        daemon.ledger_path).cycle_states().items()}
        assert statuses == {0: "ingested", 1: "ingested", 2: "ingested"}


class TestRetentionDrill:
    def test_keep_runs_bounds_disk_not_registry(self, tmp_path):
        daemon = make_daemon(tmp_path / "state", keep_runs=1)
        assert daemon.run() == EXIT_OK
        cycles_dir = os.path.join(daemon.config.state_dir, "cycles")
        assert os.listdir(cycles_dir) == ["cycle-000002"]
        # Retired run dirs are gone, but their registry rows — and the
        # whole measurement history — survive.
        with RunRegistry.open_existing(daemon.registry_path) as registry:
            assert [row.run_id for row in registry.runs()] == [
                "cycle-000000", "cycle-000001", "cycle-000002",
            ]
        ledger = ScheduleLedger.read(daemon.ledger_path)
        assert ledger.live_ingested_cycles() == [2]
        retired = [e["cycle"] for e in ledger.entries
                   if e["status"] == "retired"]
        assert retired == [0, 1]
