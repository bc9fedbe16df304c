"""Per-host circuit breakers for the crawling client.

The paper's crawl ran against marketplaces that went down for hours at a
time; hammering a dead host burns the retry budget and backoff time that
could go to healthy hosts.  A :class:`CircuitBreaker` follows the classic
three-state machine:

* **closed** — requests flow; consecutive transport-level failures are
  counted, and reaching ``FAILURE_THRESHOLD`` trips the breaker;
* **open** — requests fast-fail (the client raises
  :class:`~repro.web.http.CircuitOpen`) until ``COOLDOWN_SECONDS`` of
  simulated time pass;
* **half-open** — after the cooldown, ``HALF_OPEN_PROBES`` probe requests
  are let through: one success closes the breaker, one failure re-opens
  it for another full cooldown.

All timing is charged to the simulated clock, so breaker behaviour is
byte-deterministic across same-seed runs.  State is observable: the
owning client exports a ``circuit_breaker_state`` gauge and a
``circuit_breaker_transitions_total`` counter per host.
"""

from __future__ import annotations

from typing import Callable, Optional

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Gauge encoding of the state machine (exported as metrics).
STATE_CODES = {CLOSED: 0.0, OPEN: 1.0, HALF_OPEN: 2.0}


#: Consecutive failures that trip a closed breaker.
FAILURE_THRESHOLD = 8
#: Simulated seconds an open breaker blocks requests.
COOLDOWN_SECONDS = 180.0
#: Probe requests allowed while half-open before a verdict.
HALF_OPEN_PROBES = 1


class CircuitBreaker:
    """One host's breaker: closed -> open -> half-open -> closed."""

    def __init__(
        self,
        clock,
        on_transition: Optional[Callable[[str, str], None]] = None,
    ) -> None:
        self._clock = clock
        self.state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self._on_transition = on_transition

    # -- state machine -----------------------------------------------------

    def allow(self) -> bool:
        """Whether a request may be sent right now.

        An open breaker whose cooldown has elapsed transitions to
        half-open here, so the first post-cooldown call gets the probe.
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if self._clock.now() - self._opened_at >= COOLDOWN_SECONDS:
                self._transition(HALF_OPEN)
            else:
                return False
        # half-open: admit up to HALF_OPEN_PROBES outstanding probes.
        if self._probes_in_flight < HALF_OPEN_PROBES:
            self._probes_in_flight += 1
            return True
        return False

    def record_success(self) -> None:
        self._consecutive_failures = 0
        if self.state == HALF_OPEN:
            self._transition(CLOSED)

    def record_failure(self) -> None:
        if self.state == HALF_OPEN:
            # The probe failed: back to a full cooldown.
            self._open()
            return
        self._consecutive_failures += 1
        if self.state == CLOSED and (
            self._consecutive_failures >= FAILURE_THRESHOLD
        ):
            self._open()

    def reset(self) -> None:
        """Force-close the breaker (used at iteration epochs, where days
        of simulated idle time pass between crawls)."""
        self._consecutive_failures = 0
        self._probes_in_flight = 0
        if self.state != CLOSED:
            self._transition(CLOSED)

    # -- internals ---------------------------------------------------------

    def _open(self) -> None:
        self._opened_at = self._clock.now()
        self._transition(OPEN)

    def _transition(self, new_state: str) -> None:
        old_state, self.state = self.state, new_state
        if new_state != HALF_OPEN:
            self._probes_in_flight = 0
        if new_state == CLOSED:
            self._consecutive_failures = 0
        if self._on_transition is not None and old_state != new_state:
            self._on_transition(old_state, new_state)


__all__ = [
    "CLOSED",
    "COOLDOWN_SECONDS",
    "FAILURE_THRESHOLD",
    "HALF_OPEN",
    "HALF_OPEN_PROBES",
    "OPEN",
    "STATE_CODES",
    "CircuitBreaker",
]
