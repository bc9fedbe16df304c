"""Tests for the platform simulators and API normalization."""

import json

import pytest

from repro.platforms.api import (
    ApiStatus,
    parse_profile_payload,
    parse_timeline_payload,
)
from repro.platforms.base import PLATFORM_HOSTS, PlatformSite, profile_url
from repro.platforms.deploy import deploy_platforms, enable_moderation
from repro.synthetic import WorldBuilder, WorldConfig
from repro.synthetic.model import AccountFate, Platform
from repro.web.client import HttpClient
from repro.web.server import Internet


@pytest.fixture(scope="module")
def net_and_world():
    world = WorldBuilder(WorldConfig(seed=81, scale=0.02)).build()
    net = Internet()
    sites = deploy_platforms(net, world, enforce_moderation=True)
    client = HttpClient(net)
    return world, net, sites, client


def pick_account(world, platform, fate):
    return next(
        a for a in world.accounts_on(platform) if a.fate is fate
    )


class TestProfileApi:
    def test_active_profile_payload(self, net_and_world):
        world, _net, _sites, client = net_and_world
        account = pick_account(world, Platform.INSTAGRAM, AccountFate.ACTIVE)
        response = client.get(
            f"http://{PLATFORM_HOSTS[Platform.INSTAGRAM]}/api/users/{account.handle}"
        )
        assert response.ok
        payload = json.loads(response.body)
        assert payload["username"] == account.handle
        assert payload["follower_count"] == account.followers
        assert payload["created_at"] == account.created.isoformat()

    def test_field_spellings_differ_per_platform(self, net_and_world):
        world, _net, _sites, client = net_and_world
        x_account = pick_account(world, Platform.X, AccountFate.ACTIVE)
        response = client.get(
            f"http://{PLATFORM_HOSTS[Platform.X]}/api/users/{x_account.handle}"
        )
        payload = json.loads(response.body)
        assert "screen_name" in payload
        assert "followers_count" in payload

    def test_unknown_handle_is_not_found(self, net_and_world):
        _world, _net, _sites, client = net_and_world
        response = client.get(
            f"http://{PLATFORM_HOSTS[Platform.TIKTOK]}/api/users/no_such_user"
        )
        assert response.status == 404

    def test_banned_x_account_is_forbidden(self, net_and_world):
        world, _net, _sites, client = net_and_world
        banned = pick_account(world, Platform.X, AccountFate.BANNED)
        response = client.get(
            f"http://{PLATFORM_HOSTS[Platform.X]}/api/users/{banned.handle}"
        )
        assert response.status == 403
        assert json.loads(response.body)["error"] == "Forbidden"

    def test_banned_instagram_account_is_page_not_found(self, net_and_world):
        world, _net, _sites, client = net_and_world
        banned = next(
            a for a in world.accounts_on(Platform.INSTAGRAM)
            if a.fate is AccountFate.BANNED
        )
        response = client.get(
            f"http://{PLATFORM_HOSTS[Platform.INSTAGRAM]}/api/users/{banned.handle}"
        )
        assert response.status == 404
        assert json.loads(response.body)["error"] == "Page Not Found"

    def test_moderation_toggle(self, net_and_world):
        world, _net, sites, client = net_and_world
        banned = pick_account(world, Platform.TIKTOK, AccountFate.BANNED)
        url = f"http://{PLATFORM_HOSTS[Platform.TIKTOK]}/api/users/{banned.handle}"
        sites[Platform.TIKTOK].enforce_moderation = False
        assert client.get(url).ok
        enable_moderation(sites)
        assert client.get(url).status == 404


class TestTimelineApi:
    def test_pagination(self, net_and_world):
        world, _net, _sites, client = net_and_world
        account = next(
            a for a in world.accounts_on(Platform.X)
            if a.fate is AccountFate.ACTIVE and len(a.posts) > 5
        )
        host = PLATFORM_HOSTS[Platform.X]
        first = json.loads(
            client.get(f"http://{host}/api/users/{account.handle}/posts",
                       limit="3", offset="0").body
        )
        second = json.loads(
            client.get(f"http://{host}/api/users/{account.handle}/posts",
                       limit="3", offset="3").body
        )
        assert len(first["posts"]) == 3
        assert first["total"] == len(account.posts)
        ids_first = {p["id"] for p in first["posts"]}
        ids_second = {p["id"] for p in second["posts"]}
        assert not ids_first & ids_second

    def test_profile_web_page(self, net_and_world):
        world, _net, _sites, client = net_and_world
        account = pick_account(world, Platform.YOUTUBE, AccountFate.ACTIVE)
        response = client.get(profile_url(account.platform, account.handle))
        assert response.ok
        assert account.display_name in response.body


class TestApiNormalization:
    def test_parse_profile_normalizes_followers(self, net_and_world):
        world, _net, _sites, client = net_and_world
        account = pick_account(world, Platform.TIKTOK, AccountFate.ACTIVE)
        response = client.get(
            f"http://{PLATFORM_HOSTS[Platform.TIKTOK]}/api/users/{account.handle}"
        )
        payload = parse_profile_payload(Platform.TIKTOK, response)
        assert payload.status is ApiStatus.ACTIVE
        assert payload.followers == account.followers
        assert payload.handle == account.handle

    def test_parse_profile_forbidden(self, net_and_world):
        world, _net, _sites, client = net_and_world
        banned = pick_account(world, Platform.X, AccountFate.BANNED)
        response = client.get(
            f"http://{PLATFORM_HOSTS[Platform.X]}/api/users/{banned.handle}"
        )
        payload = parse_profile_payload(Platform.X, response)
        assert payload.status is ApiStatus.FORBIDDEN
        assert payload.status.inactive

    def test_parse_timeline(self, net_and_world):
        world, _net, _sites, client = net_and_world
        account = next(
            a for a in world.accounts_on(Platform.FACEBOOK)
            if a.fate is AccountFate.ACTIVE and a.posts
        )
        host = PLATFORM_HOSTS[Platform.FACEBOOK]
        response = client.get(f"http://{host}/api/users/{account.handle}/posts")
        payload = parse_timeline_payload(Platform.FACEBOOK, response)
        assert payload.status is ApiStatus.ACTIVE
        assert payload.total == len(account.posts)
        assert payload.posts[0].text

    def test_parse_garbage_body_is_error(self):
        from repro.web.http import Response

        response = Response(status=200, body="not json")
        assert parse_profile_payload(Platform.X, response).status is ApiStatus.ERROR
        assert parse_timeline_payload(Platform.X, response).status is ApiStatus.ERROR

    def test_inactive_statuses(self):
        assert ApiStatus.FORBIDDEN.inactive
        assert ApiStatus.NOT_FOUND.inactive
        assert not ApiStatus.ACTIVE.inactive
        assert not ApiStatus.ERROR.inactive
