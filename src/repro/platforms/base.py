"""The platform site: profile pages, metadata API, timeline API.

Each platform runs as one virtual host.  The API payload shape differs
slightly per platform (field names, error envelopes) the way real APIs
do, so the collector has to normalize — exactly the work the paper's
pipeline did across the Twitter API and Apify scrapers.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.synthetic.model import AccountFate, Platform, SocialAccount
from repro.util.simtime import SimClock
from repro.web import http
from repro.web.http import Request, Response
from repro.web.server import Site

#: Virtual hostnames, one per platform (".example" marks them synthetic).
PLATFORM_HOSTS: Dict[Platform, str] = {
    Platform.X: "x.example",
    Platform.INSTAGRAM: "instagram.example",
    Platform.FACEBOOK: "facebook.example",
    Platform.TIKTOK: "tiktok.example",
    Platform.YOUTUBE: "youtube.example",
}

#: Per-platform API quirks: field spellings and error envelopes.
_PROFILE_FIELD = {
    Platform.X: "screen_name",
    Platform.INSTAGRAM: "username",
    Platform.FACEBOOK: "username",
    Platform.TIKTOK: "unique_id",
    Platform.YOUTUBE: "channel_handle",
}
_FOLLOWER_FIELD = {
    Platform.X: "followers_count",
    Platform.INSTAGRAM: "follower_count",
    Platform.FACEBOOK: "followers",
    Platform.TIKTOK: "fans",
    Platform.YOUTUBE: "subscribers",
}
#: Section 8's observed error strings.
_GONE_MESSAGE = {
    Platform.X: "Not Found",
    Platform.INSTAGRAM: "Page Not Found",
    Platform.FACEBOOK: "Profile does not exist",
    Platform.TIKTOK: "Profile does not exist",
    Platform.YOUTUBE: "Channel does not exist",
}


def profile_url(platform: Platform, handle: str) -> str:
    """The public profile URL a marketplace listing would display."""
    return f"http://{PLATFORM_HOSTS[platform]}/{handle}"


class PlatformSite(Site):
    """One platform's virtual host serving profiles and API endpoints."""

    def __init__(
        self,
        platform: Platform,
        accounts: List[SocialAccount],
        clock: Optional[SimClock] = None,
        enforce_moderation: bool = True,
    ) -> None:
        super().__init__(
            PLATFORM_HOSTS[platform],
            clock=clock,
            latency_seconds=0.08,
            robots_text="User-agent: *\nDisallow: /settings\n",
        )
        self.platform = platform
        #: When False the site serves every existing account as active —
        #: the state of the world while the study's data collection ran,
        #: before bans landed.  The Section-8 sweep flips this to True.
        self.enforce_moderation = enforce_moderation
        self._by_handle: Dict[str, SocialAccount] = {a.handle: a for a in accounts}
        self.route("GET", "/api/users/<handle>", self._api_profile)
        self.route("GET", "/api/users/<handle>/posts", self._api_posts)
        self.route("GET", "/<handle>", self._profile_page)

    # -- account state -----------------------------------------------------

    def account(self, handle: str) -> Optional[SocialAccount]:
        return self._by_handle.get(handle)

    def _unavailable(self, account: Optional[SocialAccount]) -> Optional[Response]:
        """The platform's error envelope for missing/actioned accounts."""
        if account is None:
            payload = {"error": _GONE_MESSAGE[self.platform]}
            return http.json_like_response(json.dumps(payload), status=http.NOT_FOUND)
        if not self.enforce_moderation:
            return None
        if account.fate is AccountFate.VANISHED:
            payload = {"error": _GONE_MESSAGE[self.platform]}
            return http.json_like_response(json.dumps(payload), status=http.NOT_FOUND)
        if account.fate is AccountFate.BANNED:
            if self.platform is Platform.X:
                payload = {"error": "Forbidden", "reason": "policy violation"}
                return http.json_like_response(json.dumps(payload), status=http.FORBIDDEN)
            # Other platforms surface bans indistinguishably from deletions.
            payload = {"error": _GONE_MESSAGE[self.platform]}
            return http.json_like_response(json.dumps(payload), status=http.NOT_FOUND)
        return None

    # -- handlers ---------------------------------------------------------------

    def _api_profile(self, request: Request) -> Response:
        handle = request.path_params["handle"]
        account = self.account(handle)
        error = self._unavailable(account)
        if error is not None:
            return error
        assert account is not None
        payload = {
            "id": account.account_id,
            _PROFILE_FIELD[self.platform]: account.handle,
            "name": account.display_name,
            "description": account.description,
            "created_at": account.created.isoformat(),
            _FOLLOWER_FIELD[self.platform]: account.followers,
            "account_type": account.account_type.value,
            "location": account.location,
            "category": account.affiliated_category,
            "email": account.email,
            "phone": account.phone,
            "website": account.website,
        }
        return http.json_like_response(json.dumps(payload))

    def _api_posts(self, request: Request) -> Response:
        handle = request.path_params["handle"]
        account = self.account(handle)
        error = self._unavailable(account)
        if error is not None:
            return error
        assert account is not None
        limit = int(request.params.get("limit", "500"))
        offset = int(request.params.get("offset", "0"))
        window = account.posts[offset : offset + limit]
        payload = {
            "user": account.handle,
            "total": len(account.posts),
            "offset": offset,
            "posts": [
                {
                    "id": post.post_id,
                    "text": post.text,
                    "date": post.date.isoformat(),
                    "likes": post.likes,
                    "views": post.views,
                }
                for post in window
            ],
        }
        return http.json_like_response(json.dumps(payload))

    def _profile_page(self, request: Request) -> Response:
        handle = request.path_params["handle"]
        account = self.account(handle)
        error = self._unavailable(account)
        if error is not None:
            return http.error_response(
                error.status,
                f"<html><body><h1>{json.loads(error.body)['error']}</h1></body></html>",
            )
        assert account is not None
        body = (
            "<html><head><title>{name}</title></head><body>"
            '<h1 class="profile-name">{name}</h1>'
            '<p class="profile-handle">@{handle}</p>'
            '<p class="profile-bio">{bio}</p>'
            '<span class="follower-count">{followers}</span>'
            "</body></html>"
        ).format(
            name=account.display_name,
            handle=account.handle,
            bio=account.description,
            followers=account.followers,
        )
        return http.html_response(body)


__all__ = ["PLATFORM_HOSTS", "PlatformSite", "profile_url"]
