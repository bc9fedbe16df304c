"""The supervised continuous-measurement daemon behind ``repro monitor``.

``MonitorDaemon`` turns the one-shot pipeline into a recurring
measurement campaign: every cycle runs the full study (telemetry on,
scorecard on) into its own run directory, ingests it into the state
dir's run registry, evaluates the deterministic alert rules against the
fleet baseline, and records the whole lifecycle in the durable schedule
ledger (:mod:`repro.monitor.ledger`).  The daemon composes the
subsystems previous layers built — it owns *when* and *whether*, never
*how*.

Fault domains, from the ISSUE's model:

* one **cycle** fails (crawl bug, degraded analysis, injected drill) →
  the :class:`~repro.monitor.supervisor.CycleSupervisor` retries per
  policy, records a typed ``failed`` entry, and the daemon moves on;
* the **daemon** dies (SIGKILL, OOM) → restart replays the ledger,
  quarantines the torn cycle's partial run dir, and continues per the
  ``catch_up`` policy;
* the **operator** stops it (SIGTERM/SIGINT) → the current cycle
  finishes, state is flushed, and the exit code is 130 (a second
  signal aborts the cycle in flight);
* every cycle fails (broken deploy) → the consecutive-failure circuit
  exits 4 instead of death-looping.

Scheduling is **simulated-time by default**: cycle *k* is stamped
``scheduled_sim = k * interval`` and no real time passes between
cycles, so a 3-cycle daily campaign runs in seconds and two same-seed
daemons produce byte-identical ledgers.  ``scheduler="wall"`` really
sleeps for deployments.  Ledger entries never carry wall-clock values.

Exit codes: 0 all cycles done, 2 unusable state dir/lock/ledger,
4 circuit tripped, 130 stopped by signal.
"""

from __future__ import annotations

import os
import shutil
import signal as _signal
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.pipeline import Study, StudyConfig
from repro.monitor.errors import LockError, MonitorError
from repro.monitor.ledger import LEDGER_FILENAME, ScheduleLedger
from repro.monitor.lock import LOCK_FILENAME, StateLock
from repro.monitor.retention import RetentionPolicy, apply_retention
from repro.monitor.supervisor import (
    CyclePolicy,
    CycleSupervisor,
    DegradedCycleFault,
)
from repro.obs.alerts import evaluate_alerts, write_alerts
from repro.obs.manifest import write_telemetry_dir
from repro.obs.registry import REGISTRY_FILENAME, RunRegistry
from repro.obs.schemas import config_hash
from repro.obs.telemetry import Telemetry

CYCLES_DIRNAME = "cycles"
QUARANTINE_DIRNAME = "quarantine"

#: Daemon exit codes (also the CLI's).
EXIT_OK = 0
EXIT_STATE_ERROR = 2
EXIT_CIRCUIT = 4
EXIT_SIGNAL = 130


class MonitorAbort(BaseException):
    """Second signal: abort the cycle in flight.  BaseException so the
    cycle supervisor's ``except Exception`` fault boundary does not
    swallow it into a retry."""

    def __init__(self, signum: int):
        super().__init__(f"aborted by signal {signum}")
        self.signum = signum


@dataclass(frozen=True)
class MonitorConfig:
    """Everything ``repro monitor run`` configures.

    The **deterministic** fields (seed, scale, iterations, underground,
    chaos, interval) are hashed into the ledger header: one state dir
    is one measurement series, and reopening it with a different series
    config refuses.  Operational knobs (retries, retention, drills,
    scheduler) may vary freely between sessions of the same series.
    """

    state_dir: str
    #: Total cycles the campaign runs (None = forever / until signal).
    cycles: Optional[int] = None
    #: Simulated seconds between cycle starts (default: daily).
    interval_seconds: float = 86400.0
    seed: int = 2024
    scale: float = 0.02
    iterations: int = 3
    include_underground: bool = False
    chaos_profile: str = "off"
    #: Torn/missed cycles on restart: re-run them ("run") or record
    #: them ``skipped`` ("skip").
    catch_up: str = "run"
    #: Retention: keep at most N ingested run dirs / B bytes of them.
    keep_runs: Optional[int] = None
    max_bytes: Optional[int] = None
    #: Per-cycle retry policy.
    max_attempts: int = 2
    backoff_seconds: float = 300.0
    max_consecutive_failures: int = 3
    #: Drill: deliberately fail these analysis stages...
    fail_stages: Tuple[str, ...] = ()
    #: ...in these cycles only (empty = never).
    fail_cycles: Tuple[int, ...] = ()
    #: "sim" (default, no real time passes) or "wall" (really sleeps).
    scheduler: str = "sim"

    def deterministic_config(self) -> dict:
        """The fields that define the measurement series."""
        return {
            "seed": self.seed,
            "scale": self.scale,
            "iterations": self.iterations,
            "include_underground": self.include_underground,
            "chaos_profile": self.chaos_profile,
            "interval_seconds": self.interval_seconds,
        }

    def config_hash(self) -> str:
        return config_hash(self.deterministic_config())

    def study_config(self, cycle: int) -> StudyConfig:
        """The study config of one cycle: per-cycle seed so the trend
        series see genuine (but reproducible) run-to-run variance."""
        fail_stages = (
            self.fail_stages if cycle in self.fail_cycles else ()
        )
        return StudyConfig(
            seed=self.seed + cycle,
            scale=self.scale,
            iterations=self.iterations,
            include_underground=self.include_underground,
            chaos_profile=self.chaos_profile,
            scorecard_enabled=True,
            fail_stages=fail_stages,
        )


def run_id_for_cycle(cycle: int) -> str:
    """The registry run id of one cycle.

    Deliberately *not* the artifact content digest: manifests record
    wall-clock stage timings, so a digest id would differ between two
    same-seed daemons and break ledger byte-determinism.  The cycle
    number is the identity; re-ingesting a re-run of the same cycle is
    the idempotent no-op crash recovery relies on.
    """
    return f"cycle-{cycle:06d}"


class MonitorDaemon:
    """One supervised monitoring session over a state directory.

    Injectable seams (tests): ``pid_alive`` (lock staleness),
    ``sleep`` (wall scheduler), ``printer`` (the event stream), and
    ``hooks`` — callables invoked at named points inside the cycle body
    (``cycle_start``, ``before_ingest``) so the soak test can SIGKILL
    the daemon at exactly the nastiest instants.
    """

    def __init__(self, config: MonitorConfig,
                 printer: Callable[[str], None] = print,
                 pid_alive: Optional[Callable[[int], bool]] = None,
                 sleep: Callable[[float], None] = time.sleep,
                 hooks: Optional[Dict[str, Callable[[int, int], None]]] = None):
        self.config = config
        self.printer = printer
        self.pid_alive = pid_alive
        self.wall_sleep = sleep
        self.hooks = dict(hooks or {})
        self.stop_requested = False
        self.sim_now = 0.0

    # -- paths -------------------------------------------------------------

    def cycle_dir(self, cycle: int) -> str:
        return os.path.join(self.config.state_dir, CYCLES_DIRNAME,
                            run_id_for_cycle(cycle))

    @property
    def ledger_path(self) -> str:
        return os.path.join(self.config.state_dir, LEDGER_FILENAME)

    @property
    def registry_path(self) -> str:
        return os.path.join(self.config.state_dir, REGISTRY_FILENAME)

    @property
    def lock_path(self) -> str:
        return os.path.join(self.config.state_dir, LOCK_FILENAME)

    # -- event stream ------------------------------------------------------

    def _log(self, line: str) -> None:
        self.printer(f"monitor: {line}")

    def _hook(self, name: str, cycle: int, attempt: int) -> None:
        hook = self.hooks.get(name)
        if hook is not None:
            hook(cycle, attempt)

    # -- signals -----------------------------------------------------------

    def _on_signal(self, signum, _frame) -> None:
        if self.stop_requested:
            raise MonitorAbort(signum)
        self.stop_requested = True
        self._log(
            f"signal {signum}: finishing the current cycle, then "
            "stopping (send again to abort the cycle in flight)"
        )

    # -- scheduling --------------------------------------------------------

    def _backoff_sleep(self, seconds: float) -> None:
        """The supervisor's retry-backoff hook."""
        if self.config.scheduler == "wall":
            self.wall_sleep(seconds)
        else:
            self.sim_now += seconds

    def _advance_to(self, cycle: int, ran_before: bool) -> None:
        """Move the schedule clock to cycle ``k``'s start."""
        scheduled = cycle * self.config.interval_seconds
        if self.config.scheduler == "wall":
            if ran_before:
                self.wall_sleep(self.config.interval_seconds)
        else:
            self.sim_now = max(self.sim_now, scheduled)

    # -- lifecycle ---------------------------------------------------------

    def run(self, install_signals: bool = False) -> int:
        """The daemon main loop; returns the process exit code."""
        os.makedirs(self.config.state_dir, exist_ok=True)
        lock = StateLock(self.lock_path, pid_alive=self.pid_alive)
        try:
            lock.acquire()
        except LockError as exc:
            self._log(str(exc))
            return EXIT_STATE_ERROR
        previous_handlers = {}
        if install_signals:
            for signum in (_signal.SIGINT, _signal.SIGTERM):
                previous_handlers[signum] = _signal.signal(
                    signum, self._on_signal
                )
        try:
            return self._run_locked()
        except MonitorError as exc:
            self._log(str(exc))
            return EXIT_STATE_ERROR
        finally:
            for signum, handler in previous_handlers.items():
                _signal.signal(signum, handler)
            lock.release()

    def _run_locked(self) -> int:
        ledger = ScheduleLedger.open(self.ledger_path,
                                     self.config.config_hash())
        self._recover(ledger)
        supervisor = CycleSupervisor(
            ledger,
            policy=CyclePolicy(
                max_attempts=self.config.max_attempts,
                backoff_seconds=self.config.backoff_seconds,
                max_consecutive_failures=self.config.max_consecutive_failures,
            ),
            sleep=self._backoff_sleep,
            log=self._log,
        )
        retention = RetentionPolicy(keep_runs=self.config.keep_runs,
                                    max_bytes=self.config.max_bytes)
        cycle = 0
        ran_before = False
        completed = 0
        while self.config.cycles is None or cycle < self.config.cycles:
            state = ledger.cycle_states().get(cycle)
            if state is not None and state.terminal:
                cycle += 1
                continue
            if self.stop_requested:
                self._log(f"stopped before cycle {cycle}")
                return EXIT_SIGNAL
            if state is None or state.status != "planned":
                ledger.append({
                    "cycle": cycle, "status": "planned",
                    "scheduled_sim": round(
                        cycle * self.config.interval_seconds, 6
                    ),
                })
            self._advance_to(cycle, ran_before)
            ran_before = True
            try:
                outcome = supervisor.run_cycle(
                    cycle,
                    lambda attempt, c=cycle: self._cycle_body(c, attempt),
                )
            except MonitorAbort as abort:
                ledger.append({
                    "cycle": cycle, "status": "failed", "attempts": 0,
                    "reason": "interrupted",
                    "detail": "aborted by operator signal",
                })
                self._log(f"cycle {cycle} aborted ({abort})")
                return EXIT_SIGNAL
            if outcome.ok:
                completed += 1
                self._log(
                    f"cycle {cycle} ingested as {outcome.info.get('run_id')}"
                    f" (registry seq {outcome.info.get('seq')},"
                    f" {outcome.info.get('alerts', 0)} alert(s))"
                )
                apply_retention(ledger, retention, self.cycle_dir,
                                log=self._log)
            else:
                self._log(
                    f"cycle {cycle} FAILED after {outcome.attempts} "
                    f"attempt(s): {outcome.reason} ({outcome.detail})"
                )
                if supervisor.circuit_open:
                    self._log(
                        f"{supervisor.consecutive_failures} consecutive "
                        "cycle failures — circuit open, stopping"
                    )
                    return EXIT_CIRCUIT
            if self.stop_requested:
                self._log(f"stopped after cycle {cycle}")
                return EXIT_SIGNAL
            cycle += 1
        self._log(
            f"campaign complete: {completed} cycle(s) ingested this "
            f"session, ledger at {self.ledger_path}"
        )
        return EXIT_OK

    # -- restart recovery --------------------------------------------------

    def _recover(self, ledger: ScheduleLedger) -> None:
        """Quarantine torn cycles and apply the catch-up policy."""
        for cycle in ledger.torn_cycles():
            self._quarantine_cycle_dir(cycle)
            ledger.append({"cycle": cycle, "status": "quarantined"})
            if self.config.catch_up == "skip":
                ledger.append({
                    "cycle": cycle, "status": "skipped",
                    "reason": "catch_up",
                })
                self._log(
                    f"cycle {cycle} was torn by a crash; quarantined its "
                    "partial run dir and skipped it (catch_up=skip)"
                )
            else:
                self._log(
                    f"cycle {cycle} was torn by a crash; quarantined its "
                    "partial run dir, will re-run it (catch_up=run)"
                )

    def _quarantine_cycle_dir(self, cycle: int) -> None:
        source = self.cycle_dir(cycle)
        if not os.path.exists(source):
            return
        quarantine_root = os.path.join(self.config.state_dir,
                                       QUARANTINE_DIRNAME)
        os.makedirs(quarantine_root, exist_ok=True)
        target = os.path.join(quarantine_root, run_id_for_cycle(cycle))
        suffix = 2
        while os.path.exists(target):
            target = os.path.join(
                quarantine_root, f"{run_id_for_cycle(cycle)}.{suffix}"
            )
            suffix += 1
        os.replace(source, target)

    # -- the cycle body ----------------------------------------------------

    def _cycle_body(self, cycle: int, attempt: int) -> dict:
        """One full measurement: study → artifacts → ingest → alerts.

        Raises to signal failure (the supervisor classifies); returns
        the deterministic info dict recorded in the ``ingested`` ledger
        entry.
        """
        self._hook("cycle_start", cycle, attempt)
        run_dir = self.cycle_dir(cycle)
        if os.path.exists(run_dir):
            # Leftovers from a failed attempt this session (a crashed
            # session's leftovers were already quarantined on recovery).
            shutil.rmtree(run_dir)
        os.makedirs(run_dir, exist_ok=True)

        study_config = self.config.study_config(cycle)
        telemetry = Telemetry()
        result = Study(study_config, telemetry=telemetry).run()

        write_telemetry_dir(
            run_dir, study_config, result, telemetry,
            command=["monitor", run_id_for_cycle(cycle)],
        )

        if result.stage_failures:
            stages = ",".join(
                sorted(failure.stage for failure in result.stage_failures)
            )
            raise DegradedCycleFault(
                f"{len(result.stage_failures)} analysis stage(s) degraded "
                f"({stages}); a degraded run is not a valid measurement"
            )

        self._hook("before_ingest", cycle, attempt)
        with RunRegistry.open(self.registry_path) as registry:
            # The fixed per-cycle run id makes re-ingesting a re-run of
            # this cycle (crash between ingest and the ledger entry) an
            # idempotent no-op with the same registry seq.
            ingest = registry.ingest(run_dir,
                                     run_id=run_id_for_cycle(cycle))
            report = evaluate_alerts(registry)
        write_alerts(run_dir, report)
        for alert in report.alerts:
            self._log(
                f"ALERT [{alert.severity}] {alert.rule} {alert.metric}: "
                f"{alert.message}"
            )
        return {
            "run_id": ingest.run_id,
            "seq": ingest.seq,
            "alerts": len(report.alerts),
            "sim_seconds": round(result.simulated_seconds, 6),
        }


__all__ = [
    "CYCLES_DIRNAME",
    "EXIT_CIRCUIT",
    "EXIT_OK",
    "EXIT_SIGNAL",
    "EXIT_STATE_ERROR",
    "MonitorAbort",
    "MonitorConfig",
    "MonitorDaemon",
    "QUARANTINE_DIRNAME",
    "run_id_for_cycle",
]
