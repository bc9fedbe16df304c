"""Tests for robots.txt parsing and decisions."""

from repro.web.robots import ALLOW_ALL, RobotsPolicy


class TestParsing:
    def test_simple_disallow(self):
        policy = RobotsPolicy.parse("User-agent: *\nDisallow: /private\n")
        assert not policy.allows("any-bot", "/private/x")
        assert policy.allows("any-bot", "/public")

    def test_empty_disallow_allows_everything(self):
        policy = RobotsPolicy.parse("User-agent: *\nDisallow:\n")
        assert policy.allows("bot", "/anything")

    def test_comments_ignored(self):
        policy = RobotsPolicy.parse(
            "# header comment\nUser-agent: *  # agents\nDisallow: /x # path\n"
        )
        assert not policy.allows("bot", "/x/1")

    def test_specific_agent_group_preferred(self):
        policy = RobotsPolicy.parse(
            "User-agent: badbot\nDisallow: /\n\nUser-agent: *\nDisallow: /private\n"
        )
        assert not policy.allows("BadBot/1.0", "/anything")
        assert policy.allows("goodbot", "/anything")
        assert not policy.allows("goodbot", "/private/page")


class TestLongestMatch:
    def test_allow_overrides_shorter_disallow(self):
        policy = RobotsPolicy.parse(
            "User-agent: *\nDisallow: /shop\nAllow: /shop/public\n"
        )
        assert not policy.allows("bot", "/shop/checkout")
        assert policy.allows("bot", "/shop/public/page")

    def test_no_matching_rule_allows(self):
        policy = RobotsPolicy.parse("User-agent: *\nDisallow: /a\n")
        assert policy.allows("bot", "/b")


class TestHelpers:
    def test_allow_all_constant(self):
        assert ALLOW_ALL.allows("bot", "/anything")

    def test_no_groups_allows(self):
        policy = RobotsPolicy.parse("")
        assert policy.allows("bot", "/x")
