"""The manual-protocol collector for underground forums (Section 3.2).

The paper collected underground data entirely by hand: register on each
forum (solving its CAPTCHA), browse the social-media sections or search
with ``[account/s | profile/s] [platform]`` keywords, and record postings
from the first five result pages, up to 25 postings per platform.

This collector encodes that protocol.  It is deliberately *not* the
crawler: it uses a Tor-enabled client, solves CAPTCHAs through a
:class:`~repro.web.captcha.HumanSolver` (bounded human pace charged to
the simulated clock), follows only links the forum exposes, and respects
the 5-page / 25-posting budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.dataset import UndergroundRecord
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.crawler.extractor import (
    ExtractionError,
    extract_section_links,
    extract_thread_list,
    extract_underground_posting,
)
from repro.web.captcha import HumanSolver
from repro.web.client import HttpClient
from repro.web.html_parser import parse_html
from repro.web.http import HttpError
from repro.web.url import join_url, url_path

MAX_RESULT_PAGES = 5
MAX_POSTINGS_PER_PLATFORM = 25
#: The account name registered on every forum.
USERNAME = "survey_reader"
#: CAPTCHAs a person tries before giving up on registering.
REGISTRATION_ATTEMPTS = 3
#: Simulated seconds a person takes to read and answer one CAPTCHA.
SECONDS_PER_CHALLENGE = 25.0

#: Section 3.2's search keywords: "[account/s | profile/s] [platform]".
SEARCH_KEYWORDS = ("account", "accounts", "profile", "profiles")


@dataclass
class UndergroundCollector:
    """Walks one or more forums following the manual protocol.

    Both of the paper's collection criteria are implemented: browsing the
    per-platform sections (``collect_market``) and querying the forum
    search with ``[account/s | profile/s] [platform]`` keywords
    (``collect_market_via_search``).  Both respect the 5-page /
    25-postings-per-platform budget.
    """

    client: HttpClient  # must be Tor-enabled (HttpClient(via_tor=True))
    solver: HumanSolver
    telemetry: Optional[Telemetry] = None

    @property
    def _telemetry(self) -> Telemetry:
        return self.telemetry or getattr(self.client, "telemetry", NULL_TELEMETRY)

    def collect_market(self, market: str, host: str) -> List[UndergroundRecord]:
        """Criterion (i): browse the forum's social-media sections."""
        with self._telemetry.tracer.span("underground.market", market=market):
            return self._collect_market(market, host)

    def _collect_market(self, market: str, host: str) -> List[UndergroundRecord]:
        if not self._register(host):
            self._telemetry.events.emit(
                "registration_failed", market=market, host=host
            )
            return []
        records: List[UndergroundRecord] = []
        forum_url = f"http://{host}/forum"
        try:
            response = self.client.get(forum_url)
        except HttpError as exc:
            self._telemetry.events.emit(
                "http_error", url=forum_url, marketplace=market,
                detail=f"{type(exc).__name__}: {exc}",
            )
            return []
        if not response.ok:
            return []
        per_platform: Dict[str, int] = {}
        try:
            section_urls = extract_section_links(forum_url, response.body)
        except ExtractionError as exc:
            self._telemetry.events.emit(
                "extraction_error", url=forum_url, marketplace=market,
                detail=f"{type(exc).__name__}: {exc}",
            )
            return []
        for index, section_url in enumerate(section_urls):
            if index > 0:
                # The forum blocks any path not linked from the last page
                # served; a human navigates back to the forum root before
                # entering the next section.
                try:
                    self.client.get(forum_url)
                except HttpError:
                    break
            platform = self._platform_from_section(section_url)
            records.extend(
                self._walk_section(market, section_url, platform, per_platform)
            )
        return records

    def collect_market_via_search(
        self, market: str, host: str,
        platforms: tuple = ("X", "Instagram", "Facebook", "TikTok", "YouTube"),
    ) -> List[UndergroundRecord]:
        """Criterion (ii): forum search with the paper's keyword pattern."""
        if not self._register(host):
            self._telemetry.events.emit(
                "registration_failed", market=market, host=host
            )
            return []
        records: List[UndergroundRecord] = []
        seen_urls: set = set()
        per_platform: Dict[str, int] = {}
        for platform in platforms:
            for keyword in SEARCH_KEYWORDS:
                if per_platform.get(platform.lower(), 0) >= MAX_POSTINGS_PER_PLATFORM:
                    break
                query = f"{keyword} {platform}"
                search_url = f"http://{host}/search?q={query}"
                found = self._walk_section(
                    market, search_url, platform.lower(), per_platform
                )
                for record in found:
                    if record.url not in seen_urls:
                        seen_urls.add(record.url)
                        records.append(record)
        return records

    # -- registration -------------------------------------------------------

    def _register(self, host: str) -> bool:
        """Solve the CAPTCHA and obtain a session; a few human retries."""
        register_url = f"http://{host}/register"
        for _ in range(REGISTRATION_ATTEMPTS):
            try:
                page = self.client.get(register_url)
            except HttpError:
                return False
            if not page.ok:
                return False
            tree = parse_html(page.body)
            prompt_el = tree.find(class_="captcha-prompt")
            challenge_el = tree.find("input", name="challenge_id")
            if prompt_el is None or challenge_el is None:
                return False
            # A person reads the prompt and types an answer.
            self.client.clock.advance(SECONDS_PER_CHALLENGE)
            answer = self.solver.solve(prompt_el.text)
            try:
                response = self.client.post(
                    register_url,
                    form={
                        "challenge_id": challenge_el.get("value"),
                        "captcha_answer": answer,
                        "username": USERNAME,
                    },
                )
            except HttpError:
                return False
            if response.ok:
                return True
        return False

    # -- browsing -------------------------------------------------------------

    def _platform_from_section(self, section_url: str) -> Optional[str]:
        slug = url_path(section_url).rsplit("/", 1)[-1]
        return slug or None

    def _walk_section(
        self,
        market: str,
        section_url: str,
        platform: Optional[str],
        per_platform: Dict[str, int],
    ) -> List[UndergroundRecord]:
        """First five pages of a section, <= 25 postings per platform."""
        records: List[UndergroundRecord] = []
        page_url: Optional[str] = section_url
        pages_seen = 0
        key = platform or "unknown"
        while page_url is not None and pages_seen < MAX_RESULT_PAGES:
            if per_platform.get(key, 0) >= MAX_POSTINGS_PER_PLATFORM:
                break
            try:
                response = self.client.get(page_url)
            except HttpError:
                break
            if response.status == 403:
                self._telemetry.events.emit(
                    "forum_blocked", url=page_url, marketplace=market
                )
                break
            if not response.ok:
                break
            pages_seen += 1
            try:
                thread_list = extract_thread_list(page_url, response.body)
            except ExtractionError as exc:
                self._telemetry.events.emit(
                    "extraction_error", url=page_url, marketplace=market,
                    detail=f"{type(exc).__name__}: {exc}",
                )
                break
            for thread_url in thread_list.thread_urls:
                if per_platform.get(key, 0) >= MAX_POSTINGS_PER_PLATFORM:
                    break
                record = self._read_thread(market, thread_url, platform)
                if record is not None:
                    records.append(record)
                    per_platform[key] = per_platform.get(key, 0) + 1
            page_url = thread_list.next_page_url
        return records

    def _read_thread(
        self, market: str, thread_url: str, platform: Optional[str]
    ) -> Optional[UndergroundRecord]:
        try:
            response = self.client.get(thread_url)
        except HttpError:
            return None
        if response.status == 403:
            self._telemetry.events.emit(
                "forum_blocked", url=thread_url, marketplace=market
            )
            return None
        if not response.ok:
            return None
        platform_name = _slug_to_platform(platform)
        try:
            return extract_underground_posting(
                thread_url, response.body, market, platform_name
            )
        except ExtractionError as exc:
            self._telemetry.events.emit(
                "extraction_error", url=thread_url, marketplace=market,
                detail=f"{type(exc).__name__}: {exc}",
            )
            return None


def _slug_to_platform(slug: Optional[str]) -> Optional[str]:
    if slug is None:
        return None
    mapping = {
        "x": "X",
        "instagram": "Instagram",
        "facebook": "Facebook",
        "tiktok": "TikTok",
        "youtube": "YouTube",
    }
    return mapping.get(slug.lower())


__all__ = [
    "MAX_POSTINGS_PER_PLATFORM",
    "MAX_RESULT_PAGES",
    "UndergroundCollector",
]
