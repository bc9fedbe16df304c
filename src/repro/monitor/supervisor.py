"""Per-cycle fault isolation: retries, backoff, typed failure reasons.

Each measurement cycle is its own fault domain.  The
:class:`CycleSupervisor` runs one cycle body under a
:class:`CyclePolicy`: an exception is retried with exponential backoff
(simulated-time by default — the scheduler's ``sleep`` hook decides
whether any real time passes), deterministic faults are not retried at
all (an injected drill fault or a degraded analysis suite fails the
same way every time), and a cycle that exhausts its attempts is
recorded ``failed`` with a typed reason while the daemon keeps going.

The supervisor also holds the **consecutive-failure circuit**: after
``max_consecutive_failures`` failed cycles in a row the daemon must
exit nonzero with a diagnostic instead of death-looping silently —
a monitor that fails every cycle forever is worse than one that dies
loudly, because nobody is watching its empty registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.faults.disk import is_disk_full
from repro.monitor.ledger import ScheduleLedger


class CycleFault(Exception):
    """A typed, deliberate cycle failure (drills, policy violations).

    ``kind`` is the machine-readable reason recorded in the ledger;
    ``retryable=False`` marks deterministic faults retrying cannot fix.
    """

    kind = "fault"
    retryable = False

    def __init__(self, detail: str = ""):
        super().__init__(detail)
        self.detail = detail


class InjectedCycleFault(CycleFault):
    """The ``--fail-cycle`` drill: this cycle must fail."""

    kind = "injected"


class DegradedCycleFault(CycleFault):
    """The study ran but analysis stages failed: a degraded run is not
    a valid measurement, so the cycle fails."""

    kind = "degraded"


#: Each further retry of a cycle backs off this many times longer.
BACKOFF_FACTOR = 2.0


@dataclass(frozen=True)
class CyclePolicy:
    """How hard one cycle is allowed to try before it counts as failed."""

    #: Total attempts per cycle (1 = no retry).
    max_attempts: int = 2
    #: Simulated-seconds backoff before the first retry.
    backoff_seconds: float = 300.0
    #: Failed cycles in a row before the daemon trips its circuit.
    max_consecutive_failures: int = 3

    def backoff_for(self, attempt: int) -> float:
        """Backoff before attempt N (attempts count from 1)."""
        return self.backoff_seconds * (BACKOFF_FACTOR ** (attempt - 2))


@dataclass
class CycleOutcome:
    """What one supervised cycle ended as."""

    cycle: int
    status: str  # "ingested" | "failed"
    attempts: int
    reason: Optional[str] = None
    detail: Optional[str] = None
    #: The success payload (run_id, seq, alerts_fired, ...) on ingest.
    info: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ingested"


def classify_failure(exc: Exception) -> str:
    """A one-token machine-readable reason for a cycle failure."""
    if isinstance(exc, CycleFault):
        return exc.kind
    if is_disk_full(exc):
        # ENOSPC (injected or real): retrying into the same full disk
        # cannot help, and the reason deserves its own token so the
        # operator sees "disk_full", not "error:OSError".
        return "disk_full"
    return f"error:{type(exc).__name__}"


class CycleSupervisor:
    """Runs cycle bodies under the policy, writing the ledger as it goes.

    ``sleep`` is the scheduler's backoff hook (simulated seconds); the
    sim scheduler advances a virtual clock, the wall scheduler really
    sleeps.  ``log`` receives one human line per notable transition.
    """

    def __init__(self, ledger: ScheduleLedger,
                 policy: Optional[CyclePolicy] = None,
                 sleep: Callable[[float], None] = lambda seconds: None,
                 log: Callable[[str], None] = lambda line: None):
        self.ledger = ledger
        self.policy = policy or CyclePolicy()
        self.sleep = sleep
        self.log = log
        self.consecutive_failures = 0

    @property
    def circuit_open(self) -> bool:
        """Too many failures in a row; the daemon must stop."""
        return self.consecutive_failures >= self.policy.max_consecutive_failures

    def run_cycle(self, cycle: int,
                  body: Callable[[int], dict]) -> CycleOutcome:
        """Run ``body(attempt)`` until it succeeds or attempts run out.

        The terminal ledger entry (``ingested`` or ``failed``) is
        appended before returning, so the outcome is durable the moment
        the caller sees it.
        """
        last_exc: Optional[Exception] = None
        attempts = 0
        for attempt in range(1, self.policy.max_attempts + 1):
            attempts = attempt
            entry = {"cycle": cycle, "status": "running",
                     "attempt": attempt}
            if attempt > 1:
                backoff = round(self.policy.backoff_for(attempt), 6)
                entry["backoff_sim_seconds"] = backoff
                self.log(
                    f"cycle {cycle}: retry {attempt}/"
                    f"{self.policy.max_attempts} after {backoff:g}s backoff"
                )
                self.sleep(backoff)
            self.ledger.append(entry)
            try:
                info = body(attempt) or {}
            except Exception as exc:  # noqa: BLE001 — the fault boundary
                last_exc = exc
                reason = classify_failure(exc)
                self.log(f"cycle {cycle}: attempt {attempt} failed "
                         f"({reason}: {exc})")
                if isinstance(exc, CycleFault) and not exc.retryable:
                    break
                if is_disk_full(exc):
                    # A full disk is deterministic for the retry window;
                    # burning the remaining attempts just delays the
                    # failed entry the operator needs to see.
                    break
                continue
            self.consecutive_failures = 0
            record = {"cycle": cycle, "status": "ingested",
                      "attempts": attempt}
            record.update(info)
            self.ledger.append(record)
            return CycleOutcome(cycle=cycle, status="ingested",
                                attempts=attempt, info=info)
        reason = classify_failure(last_exc) if last_exc else "unknown"
        detail = str(last_exc) if last_exc else ""
        self.consecutive_failures += 1
        self.ledger.append({
            "cycle": cycle, "status": "failed", "attempts": attempts,
            "reason": reason, "detail": detail,
        })
        return CycleOutcome(cycle=cycle, status="failed", attempts=attempts,
                            reason=reason, detail=detail)


__all__ = [
    "CycleFault",
    "CycleOutcome",
    "CyclePolicy",
    "CycleSupervisor",
    "DegradedCycleFault",
    "InjectedCycleFault",
    "classify_failure",
]
