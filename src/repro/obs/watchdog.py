"""Crawl-health watchdogs.

The paper's crawl ran for five months; a silent partial failure (a
marketplace banning the crawler, a markup change breaking extraction)
would have skewed every downstream table.  This module watches the crawl
*while it runs*, off the same counters and event stream the telemetry
layer already collects:

* **coverage auditor** — after each iteration, compares the number of
  offers the substrate actually served per marketplace against the
  number the crawler extracted; a shortfall means offers were dropped
  (bans, broken markup, truncated pagination);
* **error/ban-rate monitor** — per-marketplace error share of fetched
  pages, with HTTP 403/429 answers tracked separately as ban pressure;
* **stall detector** — flags iterations whose simulated duration blows
  past the typical iteration, and iterations that fetched nothing.

Findings are severity-tagged (``warning`` / ``critical``), emitted into
the event log as ``watchdog.*`` events (critical maps to the ``error``
level), mirrored as metrics, and summarized into the run manifest.

Everything here is O(marketplaces) arithmetic per iteration — cheap
enough to stay enabled by default under the telemetry overhead budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.obs.telemetry import NULL_TELEMETRY, Telemetry

#: severity -> event-log level.
_SEVERITY_LEVELS = {"warning": "warning", "critical": "error"}

#: HTTP statuses that read as the crawler being banned or throttled.
_BAN_STATUSES = ("403", "429")


#: Minimum extracted/served offer ratio per marketplace+iteration.
COVERAGE_FLOOR = 0.85
#: Below this ratio coverage escalates from warning to critical.
COVERAGE_CRITICAL = 0.5
#: Maximum errors / pages-fetched per marketplace+iteration.
ERROR_RATE_CEILING = 0.25
#: Maximum 403/429 share of fetched pages before flagging a ban.
BAN_RATE_CEILING = 0.10
#: Iterations slower than ``STALL_FACTOR`` x the median iteration's
#: simulated duration are flagged as stalls.
STALL_FACTOR = 5.0
#: Don't judge ratios on fewer pages than this (tiny marketplaces).
MIN_PAGES = 4


@dataclass(frozen=True)
class Finding:
    """One watchdog observation."""

    check: str  # "coverage" | "error_rate" | "ban_rate" | "stall"
    severity: str  # "warning" | "critical"
    subject: str  # marketplace name, or "crawl" for global checks
    iteration: Optional[int]
    value: float
    threshold: float
    message: str

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "severity": self.severity,
            "subject": self.subject,
            "iteration": self.iteration,
            "value": round(self.value, 6),
            "threshold": self.threshold,
            "message": self.message,
        }


class CrawlWatchdog:
    """Watches iteration crawls through their reports and the sim clock.

    The pipeline calls :meth:`begin_iteration` / :meth:`end_iteration`
    around each collection iteration, handing over that iteration's
    :class:`~repro.crawler.crawler.CrawlReport` list and the offer
    counts the substrate says it served (``expected_counts``).  Findings
    accumulate on the instance and go out as events immediately.
    """

    def __init__(
        self,
        telemetry: Optional[Telemetry] = None,
        clock=None,
        expected_counts: Optional[Callable[[], Dict[str, int]]] = None,
    ) -> None:
        self.telemetry = telemetry or NULL_TELEMETRY
        self._clock = clock
        self._expected_counts = expected_counts
        self.findings: List[Finding] = []
        self._iteration_started_at: float = 0.0
        self._iteration_durations: List[float] = []

    # -- lifecycle --------------------------------------------------------

    def begin_iteration(self, iteration: int) -> None:
        self._iteration_started_at = self._now()

    def end_iteration(self, iteration: int, reports) -> None:
        """Audit one completed iteration from its per-marketplace reports."""
        expected = self._expected_counts() if self._expected_counts else {}
        parsed_by_market: Dict[str, int] = {}
        for report in reports:
            parsed_by_market[report.marketplace] = (
                parsed_by_market.get(report.marketplace, 0)
                + report.offers_parsed
            )
            self._check_error_rates(iteration, report)
        self._check_coverage(iteration, expected, parsed_by_market)
        self._check_stall(iteration, reports)

    def finish(self) -> None:
        """Final bookkeeping once the crawl completes."""
        counts = self.counts()
        gauge = self.telemetry.metrics.gauge(
            "watchdog_findings", "watchdog findings by severity",
            labels=("severity",),
        )
        for severity in sorted(_SEVERITY_LEVELS):
            gauge.set(float(counts.get(severity, 0)), severity=severity)

    # -- checks -----------------------------------------------------------

    def _check_coverage(self, iteration: int, expected: Dict[str, int],
                        parsed: Dict[str, int]) -> None:
        coverage_gauge = self.telemetry.metrics.gauge(
            "crawl_coverage_ratio",
            "offers extracted / offers served, by marketplace",
            labels=("marketplace",),
        )
        for marketplace in sorted(expected):
            served = expected[marketplace]
            if served <= 0:
                continue
            ratio = parsed.get(marketplace, 0) / served
            coverage_gauge.set(round(ratio, 6), marketplace=marketplace)
            if ratio >= COVERAGE_FLOOR:
                continue
            severity = "critical" if ratio < COVERAGE_CRITICAL else "warning"
            self._record(Finding(
                check="coverage", severity=severity, subject=marketplace,
                iteration=iteration, value=ratio,
                threshold=COVERAGE_FLOOR,
                message=(
                    f"{marketplace}: extracted "
                    f"{parsed.get(marketplace, 0)}/{served} served offers "
                    f"at iteration {iteration}"
                ),
            ))

    def _check_error_rates(self, iteration: int, report) -> None:
        pages = report.pages_fetched
        if pages < MIN_PAGES:
            return
        error_rate = report.errors / pages
        if error_rate > ERROR_RATE_CEILING:
            self._record(Finding(
                check="error_rate", severity="warning",
                subject=report.marketplace, iteration=iteration,
                value=error_rate, threshold=ERROR_RATE_CEILING,
                message=(
                    f"{report.marketplace}: {report.errors} errors over "
                    f"{pages} pages at iteration {iteration}"
                ),
            ))
        banned = sum(
            1 for error in report.error_details
            if error.kind == "http_status"
            and any(status in error.detail for status in _BAN_STATUSES)
        )
        ban_rate = banned / pages
        if ban_rate > BAN_RATE_CEILING:
            self._record(Finding(
                check="ban_rate", severity="critical",
                subject=report.marketplace, iteration=iteration,
                value=ban_rate, threshold=BAN_RATE_CEILING,
                message=(
                    f"{report.marketplace}: {banned} 403/429 answers over "
                    f"{pages} pages at iteration {iteration} — crawler "
                    "likely rate-limited or banned"
                ),
            ))

    def _check_stall(self, iteration: int, reports) -> None:
        if not any(report.pages_fetched for report in reports):
            self._record(Finding(
                check="stall", severity="critical", subject="crawl",
                iteration=iteration, value=0.0, threshold=1.0,
                message=f"iteration {iteration} fetched no pages at all",
            ))
        duration = max(0.0, self._now() - self._iteration_started_at)
        history = self._iteration_durations
        if history:
            typical = sorted(history)[len(history) // 2]
            limit = typical * STALL_FACTOR
            if typical > 0 and duration > limit:
                self._record(Finding(
                    check="stall", severity="warning", subject="crawl",
                    iteration=iteration, value=duration, threshold=limit,
                    message=(
                        f"iteration {iteration} took {duration:.0f}s of "
                        f"simulated time (typical: {typical:.0f}s)"
                    ),
                ))
        history.append(duration)

    # -- reporting --------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.severity] = counts.get(finding.severity, 0) + 1
        return dict(sorted(counts.items()))

    def summary(self) -> dict:
        """The manifest block: counts plus every finding, in order."""
        return {
            "config": {
                "coverage_floor": COVERAGE_FLOOR,
                "error_rate_ceiling": ERROR_RATE_CEILING,
                "ban_rate_ceiling": BAN_RATE_CEILING,
                "stall_factor": STALL_FACTOR,
            },
            "counts": self.counts(),
            "findings": [finding.to_dict() for finding in self.findings],
        }

    def _record(self, finding: Finding) -> None:
        self.findings.append(finding)
        self.telemetry.events.emit(
            f"watchdog.{finding.check}",
            level=_SEVERITY_LEVELS[finding.severity],
            severity=finding.severity,
            subject=finding.subject,
            iteration=finding.iteration,
            value=round(finding.value, 6),
            threshold=finding.threshold,
            message=finding.message,
        )

    def _now(self) -> float:
        return self._clock.now() if self._clock is not None else 0.0


__all__ = ["CrawlWatchdog", "Finding"]
