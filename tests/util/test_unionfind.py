"""Tests for the shared union-find."""

from hypothesis import given, strategies as st

from repro.util.unionfind import UnionFind


class TestUnionFind:
    def test_singletons_until_joined(self):
        sets = UnionFind(3)
        assert sets.groups() == {0: [0], 1: [1], 2: [2]}

    def test_union_hangs_second_root_under_first(self):
        sets = UnionFind(4)
        sets.union(3, 1)
        assert sets.find(1) == 3
        sets.union(0, 1)
        # 1's root (3) now hangs under 0.
        assert sets.find(3) == 0
        assert sets.groups() == {0: [0, 1, 3], 2: [2]}

    def test_repeated_union_is_a_no_op(self):
        sets = UnionFind(2)
        sets.union(0, 1)
        sets.union(1, 0)
        assert sets.groups() == {0: [0, 1]}

    def test_groups_ordered_by_smallest_member(self):
        sets = UnionFind(5)
        sets.union(4, 2)
        sets.union(3, 0)
        assert list(sets.groups().values()) == [[0, 3], [1], [2, 4]]

    @given(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)),
                    max_size=30))
    def test_groups_are_connected_components(self, edges):
        sets = UnionFind(12)
        for a, b in edges:
            sets.union(a, b)
        # Reference: flood fill over the undirected edge list.
        component = {}
        for start in range(12):
            if start in component:
                continue
            stack = [start]
            while stack:
                node = stack.pop()
                if node in component:
                    continue
                component[node] = start
                stack.extend(b for a, b in edges if a == node)
                stack.extend(a for a, b in edges if b == node)
        expected = {}
        for node in range(12):
            expected.setdefault(component[node], []).append(node)
        assert sorted(sets.groups().values()) == sorted(expected.values())
