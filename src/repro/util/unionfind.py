"""Disjoint sets over ``0..n-1`` for the single-link groupings.

Network clustering (§7), underground text reuse (§4.2) and the scalable
clusterer's centroid merge all link items pairwise and read off the
connected groups.  Roots are deterministic: ``union(a, b)`` hangs
``b``'s root under ``a``'s, so a group's root is the root of whichever
member linked first.
"""

from __future__ import annotations

from typing import Dict, List


class UnionFind:
    """Union-find with path halving."""

    __slots__ = ("_parent",)

    def __init__(self, n: int) -> None:
        self._parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self._parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        """Join the sets of ``a`` and ``b`` under ``a``'s root."""
        root_a, root_b = self.find(a), self.find(b)
        if root_a != root_b:
            self._parent[root_b] = root_a

    def groups(self) -> Dict[int, List[int]]:
        """Members by root, each list ascending, roots in the order of
        their groups' smallest members."""
        members: Dict[int, List[int]] = {}
        for x in range(len(self._parent)):
            members.setdefault(self.find(x), []).append(x)
        return members


__all__ = ["UnionFind"]
