"""The marketplace crawler and its multi-iteration scheduler.

:class:`MarketplaceCrawler` implements Section 3.2's strategy: starting
from a seed listing URL, depth-first — visit a listing page, open every
offer on it, collect details, then follow pagination; stop when no new
offers or pages appear.  Seller pages are visited once each; payment
pages once per marketplace.

:class:`IterationCrawl` repeats the crawl at every collection iteration
(Feb–Jun 2024 in the paper) and maintains per-offer first/last-seen
bookkeeping, which is exactly the data behind Figure 2's cumulative vs
active listing curves.

Every page is fetched at every visit, but the crawlers of one
:class:`IterationCrawl` share a memo that extracts each offer and seller
page once per (url, body): a re-visited page whose body is unchanged
yields a copy of the record extracted the first time.

Nothing fails silently: every anomaly becomes a :class:`CrawlError` on
the :class:`CrawlReport` (url, kind, detail) and — when telemetry is
enabled — a structured event carrying marketplace and iteration context.
"""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.dataset import (
    ListingRecord,
    MeasurementDataset,
    SellerRecord,
    add_provenance,
)
from repro.crawler.extractor import (
    ExtractionError,
    extract_listing_index,
    extract_offer,
    extract_payment_methods,
    extract_seller,
)
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.web.client import HttpClient
from repro.web.http import HttpError
from repro.web.url import join_url, normalize_url, url_host

logger = logging.getLogger("repro.crawler")


def _looks_truncated(response) -> bool:
    """Whether an ok HTML response body was cut off mid-transfer.

    Every page the substrate renders ends with ``</html>``; a body
    missing that tail lost its end — the signature of a proxy dying
    mid-transfer (which the fault layer injects as ``truncate_body``).
    """
    if not response.ok or "text/html" not in response.content_type:
        return False
    return "</html>" not in response.body[-32:]


@dataclass(frozen=True)
class CrawlError:
    """One structured crawl failure: what URL, what kind, what detail."""

    url: str
    #: e.g. ``http_error``, ``http_status``, ``extraction_error``.
    kind: str
    detail: str = ""


@dataclass
class CrawlReport:
    """Counters from one marketplace crawl.

    ``errors`` stays the historical total; ``error_details`` carries the
    structured record behind each increment.
    """

    marketplace: str
    pages_fetched: int = 0
    offers_found: int = 0
    offers_parsed: int = 0
    sellers_fetched: int = 0
    errors: int = 0
    error_details: List[CrawlError] = field(default_factory=list)

    def record_error(self, url: str, kind: str, detail: str = "") -> CrawlError:
        error = CrawlError(url=url, kind=kind, detail=detail)
        self.errors += 1
        self.error_details.append(error)
        return error


class MarketplaceCrawler:
    """Depth-first crawler for one public marketplace.

    ``memo`` is the extraction memo to share with other crawlers of the
    same crawl (see the module docstring); without it the crawler starts
    an empty one of its own.
    """

    def __init__(
        self,
        client: HttpClient,
        marketplace: str,
        seed_url: str,
        telemetry: Optional[Telemetry] = None,
        iteration: Optional[int] = None,
        memo: Optional[Dict[tuple, object]] = None,
    ) -> None:
        self._client = client
        self.marketplace = marketplace
        self.seed_url = seed_url
        self.telemetry = telemetry or getattr(client, "telemetry", NULL_TELEMETRY)
        self.iteration = iteration
        self._seller_cache: Dict[str, SellerRecord] = {}
        self._memo: Dict[tuple, object] = {} if memo is None else memo

    def _extract(self, extractor, url: str, body: str):
        """``extractor(url, body, marketplace)``, once per distinct page.

        Extraction is a pure function of those three.  The stored record
        is never handed out, because receivers mutate theirs
        (bookkeeping, provenance); every record field is an immutable
        scalar, so a shallow copy is independent of it.  An
        :class:`ExtractionError` stores nothing, so a corrupted body
        fails every time.  ``extractor`` is looked up by the caller at
        call time, so a wrapper installed on this module sees each miss.
        """
        key = (extractor, self.marketplace, url, body)
        record = self._memo.get(key)
        if record is None:
            record = self._memo[key] = extractor(url, body, self.marketplace)
        return copy.copy(record)

    def _fail(self, report: CrawlReport, url: str, kind: str,
              detail: str = "") -> None:
        """Record one failure in the report, event log, and logger."""
        report.record_error(url, kind, detail)
        self.telemetry.events.emit(
            kind,
            url=url,
            marketplace=self.marketplace,
            iteration=self.iteration,
            detail=detail,
        )
        logger.debug("%s %s on %s: %s", self.marketplace, kind, url, detail)

    def crawl(self) -> Tuple[List[ListingRecord], List[SellerRecord], CrawlReport]:
        """Crawl all listing pages and offers; returns records + report."""
        report = CrawlReport(marketplace=self.marketplace)
        listings: List[ListingRecord] = []
        with self.telemetry.tracer.span(
            "crawl.marketplace",
            marketplace=self.marketplace,
            iteration=self.iteration,
        ):
            self._crawl_pages(report, listings)
        sellers = list(self._seller_cache.values())
        report.sellers_fetched = len(sellers)
        self._record_metrics(report)
        return listings, sellers, report

    def _record_metrics(self, report: CrawlReport) -> None:
        """Mirror the report counters into per-marketplace metrics, so
        the watchdog and ``repro diff`` can audit coverage."""
        metrics = self.telemetry.metrics
        for name, value in (
            ("crawl_pages_fetched_total", report.pages_fetched),
            ("crawl_offers_found_total", report.offers_found),
            ("crawl_offers_parsed_total", report.offers_parsed),
            ("crawl_errors_total", report.errors),
        ):
            if value:
                metrics.counter(
                    name, "crawl counter, by marketplace",
                    labels=("marketplace",),
                ).inc(value, marketplace=self.marketplace)

    def _get_page(self, url: str, report: CrawlReport):
        """GET with a one-shot integrity re-fetch for truncated bodies."""
        response = self._client.get(url)
        report.pages_fetched += 1
        if _looks_truncated(response):
            self.telemetry.events.emit(
                "crawl.refetch",
                url=url,
                marketplace=self.marketplace,
                iteration=self.iteration,
                detail="truncated body",
            )
            response = self._client.get(url)
            report.pages_fetched += 1
        return response

    def _crawl_pages(self, report: CrawlReport,
                     listings: List[ListingRecord]) -> None:
        page_url: Optional[str] = self.seed_url
        # Two spellings of one offer URL (case, trailing slash) are one
        # offer: dedup on the normalized key, fetch the first spelling.
        seen_offers = set()
        while page_url is not None:
            with self.telemetry.tracer.span("crawl.page", url=page_url):
                index = self._collect_index(page_url, report)
                if index is None:
                    break
                fresh = []
                for offer_url in index.offer_urls:
                    key = normalize_url(offer_url)
                    if key not in seen_offers:
                        seen_offers.add(key)
                        fresh.append(offer_url)
                report.offers_found += len(fresh)
                for offer_url in fresh:
                    record = self._collect_offer(offer_url, report)
                    if record is not None:
                        listings.append(record)
                page_url = index.next_page_url

    def _collect_index(self, page_url: str, report: CrawlReport):
        """Fetch + parse one listing-index page; ``None`` ends the walk.

        An index page that comes back empty (no offers, no pagination)
        is re-fetched once before being believed: that shape is what a
        corrupted body produces, and losing an index page silently loses
        every offer behind it.
        """
        for attempt in (0, 1):
            try:
                response = self._get_page(page_url, report)
            except HttpError as exc:
                self._fail(report, page_url, "http_error",
                           f"{type(exc).__name__}: {exc}")
                return None
            if not response.ok:
                self._fail(report, page_url, "http_status",
                           f"status {response.status}")
                return None
            try:
                index = extract_listing_index(page_url, response.body)
            except ExtractionError as exc:
                self._fail(report, page_url, "extraction_error",
                           f"{type(exc).__name__}: {exc}")
                return None
            if index.offer_urls or index.next_page_url or attempt:
                return index
            self.telemetry.events.emit(
                "crawl.refetch",
                url=page_url,
                marketplace=self.marketplace,
                iteration=self.iteration,
                detail="empty index page",
            )
        return index

    def _collect_offer(self, offer_url: str, report: CrawlReport) -> Optional[ListingRecord]:
        record = None
        last_error: Optional[ExtractionError] = None
        for attempt in (0, 1):
            try:
                response = self._get_page(offer_url, report)
            except HttpError as exc:
                self._fail(report, offer_url, "http_error",
                           f"{type(exc).__name__}: {exc}")
                return None
            if not response.ok:
                self._fail(report, offer_url, "http_status",
                           f"status {response.status}")
                return None
            try:
                record = self._extract(extract_offer, offer_url, response.body)
            except ExtractionError as exc:
                # Transient corruption (mangled or truncated body) heals
                # on a re-fetch; a genuinely broken page fails twice.
                last_error = exc
                continue
            break
        if record is None:
            self._fail(report, offer_url, "extraction_error",
                       f"{type(last_error).__name__}: {last_error}")
            return None
        if _looks_truncated(response):
            # Extraction salvaged fields from a cut-off page even after
            # the re-fetch; keep the record but flag its lineage.
            add_provenance(record, "partial:truncated_html")
            self.telemetry.events.emit(
                "crawl.partial_record",
                url=offer_url,
                marketplace=self.marketplace,
                iteration=self.iteration,
                detail="truncated_html",
            )
        report.offers_parsed += 1
        if record.seller_url:
            self._visit_seller(record.seller_url, report)
        return record

    def _visit_seller(self, seller_url: str, report: CrawlReport) -> None:
        key = normalize_url(seller_url)
        if key in self._seller_cache:
            return
        try:
            response = self._get_page(seller_url, report)
        except HttpError as exc:
            self._fail(report, seller_url, "http_error",
                       f"{type(exc).__name__}: {exc}")
            return
        if not response.ok:
            self._fail(report, seller_url, "http_status",
                       f"status {response.status}")
            return
        try:
            record = self._extract(extract_seller, seller_url, response.body)
        except ExtractionError as exc:
            self._fail(report, seller_url, "extraction_error",
                       f"{type(exc).__name__}: {exc}")
            return
        self._seller_cache[key] = record

    def collect_payment_methods(self) -> List[Tuple[str, str]]:
        """Fetch the marketplace's payments page (Table 3 source)."""
        payments_url = join_url(self.seed_url, "/payments")
        try:
            response = self._client.get(payments_url)
        except HttpError as exc:
            self.telemetry.events.emit(
                "http_error",
                url=payments_url,
                marketplace=self.marketplace,
                detail=f"{type(exc).__name__}: {exc}",
            )
            return []
        if not response.ok:
            return []
        return extract_payment_methods(response.body)


@dataclass
class IterationCrawl:
    """Repeated crawls across collection iterations (Figure 2).

    ``run`` crawls every marketplace at every iteration, advancing the
    marketplace sites' ``current_iteration`` through the supplied setter,
    and merges the per-iteration observations into one dataset with
    first/last-seen bookkeeping per offer URL.
    """

    client: HttpClient
    seed_urls: Dict[str, str]  # marketplace -> seed listing URL
    set_iteration: object  # Callable[[int], None]
    iterations: int = 1
    #: Optional path for persistent crawl state; with it set, a crashed
    #: or restarted crawl resumes from the last completed iteration.
    checkpoint_path: Optional[str] = None
    telemetry: Optional[Telemetry] = None
    #: Optional :class:`~repro.obs.watchdog.CrawlWatchdog`; when set, it
    #: audits every iteration (coverage, error rates, stalls) in-flight.
    watchdog: Optional[object] = None
    #: Optional :class:`~repro.archive.writer.ArchiveWriter` (duck-typed).
    #: The crawl drives its phase lifecycle: one index file per
    #: iteration, opened before any request and closed before the
    #: checkpoint claims the iteration complete.
    archive: Optional[object] = None
    #: Optional :class:`~repro.faults.disk.DiskFaultInjector`; checkpoint
    #: saves route through it, and a disk-full checkpoint save degrades
    #: (skip + event) instead of killing a crawl that is still working.
    disk_faults: Optional[object] = None
    #: offer URL -> (record, first_seen, last_seen)
    _tracker: Dict[str, ListingRecord] = field(default_factory=dict)
    #: The extraction memo every iteration's crawlers share.
    _extracted: Dict[tuple, object] = field(
        default_factory=dict, init=False, repr=False)
    reports: List[CrawlReport] = field(default_factory=list)
    #: per-iteration active-listing counts, for Figure 2.
    active_per_iteration: List[int] = field(default_factory=list)
    cumulative_per_iteration: List[int] = field(default_factory=list)

    def run(self) -> MeasurementDataset:
        from repro.crawler.checkpoints import CrawlCheckpoint

        telemetry = self.telemetry or getattr(
            self.client, "telemetry", NULL_TELEMETRY
        )
        dataset = MeasurementDataset()
        sellers_seen: Dict[str, SellerRecord] = {}
        start_iteration = 0
        if self.checkpoint_path:
            checkpoint = CrawlCheckpoint.load_or_empty(
                self.checkpoint_path, telemetry=telemetry,
            )
            start_iteration = checkpoint.completed_iterations
            self._tracker = checkpoint.tracker
            self.active_per_iteration = checkpoint.active_per_iteration
            self.cumulative_per_iteration = checkpoint.cumulative_per_iteration
            sellers_seen.update(checkpoint.sellers)
            if start_iteration:
                clock = self.client.clock
                if checkpoint.sim_seconds > clock.now():
                    # Fast-forward the fresh clock to where the killed
                    # run left off, so timestamps and breaker cooldowns
                    # match an uninterrupted run.
                    clock.advance(checkpoint.sim_seconds - clock.now())
                telemetry.events.emit(
                    "checkpoint.resume",
                    path=self.checkpoint_path,
                    completed_iterations=start_iteration,
                    tracked_offers=len(self._tracker),
                )
        if self.archive is not None:
            # Prune whatever the killed run wrote past its checkpoint —
            # the resumed crawl rewrites it identically, so the sealed
            # archive matches an uninterrupted twin's byte for byte.
            self.archive.begin_resume(start_iteration)
        for iteration in range(start_iteration, self.iterations):
            self.set_iteration(iteration)  # type: ignore[operator]
            if self.watchdog is not None:
                self.watchdog.begin_iteration(iteration)
            if self.archive is not None:
                self.archive.begin_iteration(iteration)
            iteration_reports: List[CrawlReport] = []
            active_count = 0
            with telemetry.tracer.span("crawl.iteration", iteration=iteration):
                for marketplace, seed in self.seed_urls.items():
                    crawler = MarketplaceCrawler(
                        self.client, marketplace, seed,
                        telemetry=telemetry, iteration=iteration,
                        memo=self._extracted,
                    )
                    listings, sellers, report = crawler.crawl()
                    self.reports.append(report)
                    iteration_reports.append(report)
                    active_count += len(listings)
                    for record in listings:
                        key = normalize_url(record.offer_url)
                        known = self._tracker.get(key)
                        if known is None:
                            record.first_seen_iteration = iteration
                            record.last_seen_iteration = iteration
                            self._tracker[key] = record
                        else:
                            known.last_seen_iteration = iteration
                    for seller in sellers:
                        sellers_seen.setdefault(normalize_url(seller.seller_url), seller)
            if self.watchdog is not None:
                self.watchdog.end_iteration(iteration, iteration_reports)
            if self.archive is not None:
                # Close the iteration's index before the checkpoint
                # claims the iteration complete, so a kill between the
                # two leaves at worst a prunable torn *next* index.
                self.archive.end_iteration(iteration)
            logger.info(
                "iteration %d: %d active listings, %d cumulative",
                iteration, active_count, len(self._tracker),
            )
            self.active_per_iteration.append(active_count)
            self.cumulative_per_iteration.append(len(self._tracker))
            if self.checkpoint_path:
                checkpoint = CrawlCheckpoint(
                    completed_iterations=iteration + 1,
                    active_per_iteration=self.active_per_iteration,
                    cumulative_per_iteration=self.cumulative_per_iteration,
                    sim_seconds=self.client.clock.now(),
                    tracker=self._tracker,
                    sellers=sellers_seen,
                )
                try:
                    checkpoint.save(self.checkpoint_path,
                                    faults=self.disk_faults)
                except OSError as exc:
                    from repro.faults.disk import is_disk_full

                    # The atomic write left the previous checkpoint
                    # intact.  A checkpoint is a resume point, not the
                    # data: losing one is a degradation, not a reason to
                    # abandon a crawl that is still collecting — record
                    # it (disk-full gets its own event kind) and go on.
                    telemetry.events.emit(
                        "checkpoint.disk_full" if is_disk_full(exc)
                        else "checkpoint.write_error",
                        level="warning",
                        path=self.checkpoint_path, iteration=iteration,
                        detail=str(exc),
                    )
        dataset.listings = list(self._tracker.values())
        dataset.sellers = list(sellers_seen.values())
        return dataset


__all__ = ["CrawlError", "CrawlReport", "IterationCrawl", "MarketplaceCrawler"]
