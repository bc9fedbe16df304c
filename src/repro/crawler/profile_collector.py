"""Profile metadata and timeline collection (Section 3.2).

For every listing that displays a profile link, query the platform's
metadata API and timeline API (paginated), normalizing across platforms.
Inactive accounts (Forbidden / Not Found) still yield a
:class:`~repro.core.dataset.ProfileRecord` carrying the status — that is
the raw material of the Section 8 efficacy analysis.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.dataset import (
    ListingRecord,
    PostRecord,
    ProfileRecord,
    add_provenance,
)
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.platforms.api import (
    ApiStatus,
    parse_profile_payload,
    parse_timeline_payload,
)
from repro.platforms.base import PLATFORM_HOSTS
from repro.synthetic.model import Platform
from repro.web.client import HttpClient
from repro.web.http import HttpError
from repro.web.url import url_host, url_path

_HOST_TO_PLATFORM: Dict[str, Platform] = {
    host: platform for platform, host in PLATFORM_HOSTS.items()
}


def platform_of_url(profile_url: str) -> Optional[Platform]:
    """Which platform a profile URL belongs to, from its hostname."""
    return _HOST_TO_PLATFORM.get(url_host(profile_url))


def handle_of_url(profile_url: str) -> str:
    """The account handle encoded in a profile URL path."""
    return url_path(profile_url).strip("/")


class ProfileCollector:
    """Queries platform APIs for all visible accounts in a listing set."""

    def __init__(self, client: HttpClient, timeline_page_size: int = 200,
                 telemetry: Optional[Telemetry] = None) -> None:
        self._client = client
        self.timeline_page_size = timeline_page_size
        self.telemetry = telemetry or getattr(client, "telemetry", NULL_TELEMETRY)
        self._m_profiles = self.telemetry.metrics.counter(
            "profiles_queried_total", "profile API queries, by outcome",
            labels=("outcome",),
        )
        self._m_posts = self.telemetry.metrics.counter(
            "timeline_posts_total", "timeline posts collected"
        )

    def _fail(self, url: str, kind: str, detail: str = "") -> None:
        self.telemetry.events.emit(kind, url=url, stage="profiles", detail=detail)

    def collect(
        self, listings: Iterable[ListingRecord]
    ) -> Tuple[List[ProfileRecord], List[PostRecord]]:
        """Collect profiles + posts for every distinct visible profile URL."""
        profiles: List[ProfileRecord] = []
        posts: List[PostRecord] = []
        seen: set = set()
        for listing in listings:
            url = listing.profile_url
            if not url or url in seen:
                continue
            seen.add(url)
            result = self.collect_profile(url)
            if result is None:
                continue
            profile, timeline = result
            profiles.append(profile)
            posts.extend(timeline)
        return profiles, posts

    def collect_profile(
        self, profile_url: str
    ) -> Optional[Tuple[ProfileRecord, List[PostRecord]]]:
        """Collect one profile and its timeline; None on transport failure."""
        platform = platform_of_url(profile_url)
        if platform is None:
            self._fail(profile_url, "unknown_platform")
            self._m_profiles.inc(outcome="unknown_platform")
            return None
        handle = handle_of_url(profile_url)
        host = PLATFORM_HOSTS[platform]
        try:
            response = self._client.get(f"http://{host}/api/users/{handle}")
        except HttpError as exc:
            self._fail(profile_url, "http_error", f"{type(exc).__name__}: {exc}")
            self._m_profiles.inc(outcome="error")
            return None
        payload = parse_profile_payload(platform, response)
        record = ProfileRecord(
            profile_url=profile_url,
            platform=platform.value,
            handle=handle,
            status=payload.status.value,
        )
        if payload.status is not ApiStatus.ACTIVE:
            self._m_profiles.inc(outcome="inactive")
            return record, []
        self._m_profiles.inc(outcome="active")
        record.account_id = payload.account_id
        record.name = payload.name
        record.description = payload.description
        record.created = payload.created.isoformat() if payload.created else None
        record.followers = payload.followers
        record.account_type = payload.account_type
        record.location = payload.location
        record.category = payload.category
        record.email = payload.email
        record.phone = payload.phone
        record.website = payload.website
        timeline, complete = self._collect_timeline(platform, host, handle)
        if not complete:
            # Keep what we got, but mark the record so analyses know the
            # timeline may be missing posts.
            add_provenance(record, "partial:timeline_error")
            self.telemetry.events.emit(
                "crawl.partial_record",
                url=profile_url,
                stage="profiles",
                detail="timeline_error",
            )
        return record, timeline

    def sweep_status(self, profiles: Iterable[ProfileRecord]) -> int:
        """Re-query each profile's API status (the Section-8 sweep).

        The paper collected metadata and posts while accounts were live,
        then later "analyzed the active status of 11,457 social media
        profiles using API responses".  Returns how many profiles turned
        out inactive.
        """
        inactive = 0
        for record in profiles:
            platform = platform_of_url(record.profile_url)
            if platform is None:
                continue
            host = PLATFORM_HOSTS[platform]
            try:
                response = self._client.get(
                    f"http://{host}/api/users/{record.handle}"
                )
            except HttpError as exc:
                self._fail(record.profile_url, "http_error",
                           f"sweep: {type(exc).__name__}: {exc}")
                continue
            payload = parse_profile_payload(platform, response)
            record.status = payload.status.value
            if payload.status.inactive:
                inactive += 1
        return inactive

    def _collect_timeline(
        self, platform: Platform, host: str, handle: str
    ) -> Tuple[List[PostRecord], bool]:
        """Page through the timeline API until exhausted.

        Returns the posts plus whether pagination ran to completion; a
        transport failure or error payload mid-walk yields a partial
        timeline the caller flags via the record's provenance.
        """
        posts: List[PostRecord] = []
        offset = 0
        complete = True
        timeline_url = f"http://{host}/api/users/{handle}/posts"
        while True:
            try:
                response = self._client.get(
                    timeline_url,
                    limit=str(self.timeline_page_size),
                    offset=str(offset),
                )
            except HttpError as exc:
                self._fail(timeline_url, "http_error",
                           f"{type(exc).__name__}: {exc}")
                complete = False
                break
            payload = parse_timeline_payload(platform, response)
            if payload.status is not ApiStatus.ACTIVE:
                self._fail(timeline_url, "timeline_error",
                           f"status {payload.status.value}")
                complete = False
                break
            for post in payload.posts:
                posts.append(
                    PostRecord(
                        post_id=post.post_id,
                        platform=platform.value,
                        handle=handle,
                        text=post.text,
                        date=post.date.isoformat() if post.date else None,
                        likes=post.likes,
                        views=post.views,
                    )
                )
            offset += len(payload.posts)
            if offset >= payload.total or not payload.posts:
                break
        self._m_posts.inc(len(posts))
        return posts, complete


__all__ = ["ProfileCollector", "handle_of_url", "platform_of_url"]
