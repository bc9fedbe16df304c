"""Minimal robots.txt parsing and checking.

The study's ethics statement commits to passive collection of public data;
the crawler honours robots.txt on every public marketplace.  This module
implements the subset of the robots exclusion protocol the sites use:
``User-agent`` groups with ``Allow``/``Disallow`` prefix rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


@dataclass
class RobotsGroup:
    agents: List[str] = field(default_factory=list)
    # (allow?, path-prefix) rules in file order.
    rules: List[Tuple[bool, str]] = field(default_factory=list)

    def applies_to(self, user_agent: str) -> bool:
        ua = user_agent.lower()
        return any(agent == "*" or agent in ua for agent in self.agents)


class RobotsPolicy:
    """Parsed robots.txt for one host."""

    def __init__(self, groups: List[RobotsGroup]) -> None:
        self._groups = groups

    @classmethod
    def parse(cls, text: str) -> "RobotsPolicy":
        groups: List[RobotsGroup] = []
        current: Optional[RobotsGroup] = None
        expecting_agents = False
        for raw_line in text.splitlines():
            line = raw_line.split("#", 1)[0].strip()
            if not line or ":" not in line:
                continue
            keyword, _, value = line.partition(":")
            keyword = keyword.strip().lower()
            value = value.strip()
            if keyword == "user-agent":
                if current is None or not expecting_agents:
                    current = RobotsGroup()
                    groups.append(current)
                    expecting_agents = True
                current.agents.append(value.lower())
            elif current is not None:
                expecting_agents = False
                if keyword == "disallow":
                    if value:
                        current.rules.append((False, value))
                elif keyword == "allow":
                    if value:
                        current.rules.append((True, value))
        return cls(groups)

    def _group_for(self, user_agent: str) -> Optional[RobotsGroup]:
        specific = [g for g in self._groups if g.applies_to(user_agent) and "*" not in g.agents]
        if specific:
            return specific[0]
        for group in self._groups:
            if "*" in group.agents:
                return group
        return None

    def allows(self, user_agent: str, path: str) -> bool:
        """Longest-prefix-match decision, allow on tie (Google semantics)."""
        group = self._group_for(user_agent)
        if group is None:
            return True
        best_len = -1
        best_allow = True
        for allow, prefix in group.rules:
            if path.startswith(prefix) and len(prefix) > best_len:
                best_len = len(prefix)
                best_allow = allow
            elif path.startswith(prefix) and len(prefix) == best_len and allow:
                best_allow = True
        return best_allow


__all__ = ["RobotsGroup", "RobotsPolicy"]
