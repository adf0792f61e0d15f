"""Tests for the Section 6 query layer: the :mod:`repro.core.queries`
helpers (LCA, common sets, levels) and the engine methods they sit beside
(disjointness, batch reachability, set semijoins)."""

import pytest

from repro.core import queries
from repro.core.index import IntervalTCIndex
from repro.graph.digraph import DiGraph


@pytest.fixture
def lattice_index():
    """A lattice-ish concept hierarchy:

            top
           /   \\
        left   right
         | \\   / |
         |  mid  |
         \\  |   /
           bottom
    """
    graph = DiGraph([
        ("top", "left"), ("top", "right"),
        ("left", "mid"), ("right", "mid"),
        ("left", "bottom-l"), ("right", "bottom-r"),
        ("mid", "bottom"),
    ])
    return IntervalTCIndex.build(graph)


class TestBasicSets:
    def test_descendants(self, lattice_index):
        assert queries.descendants(lattice_index, "left") == \
            {"mid", "bottom", "bottom-l"}

    def test_ancestors(self, lattice_index):
        assert queries.ancestors(lattice_index, "bottom") == \
            {"top", "left", "right", "mid"}

    def test_strict_reachability(self, lattice_index):
        assert not queries.strictly_reachable(lattice_index, "mid", "mid")
        assert queries.strictly_reachable(lattice_index, "top", "bottom")
        assert not queries.strictly_reachable(lattice_index, "bottom", "top")


class TestCommonSets:
    def test_common_ancestors(self, lattice_index):
        assert queries.common_ancestors(lattice_index, ["bottom-l", "bottom-r"]) \
            == {"top"}
        assert queries.common_ancestors(lattice_index, ["mid"]) == \
            {"top", "left", "right", "mid"}

    def test_common_ancestors_empty_input(self, lattice_index):
        assert queries.common_ancestors(lattice_index, []) == set()

    def test_common_descendants(self, lattice_index):
        assert queries.common_descendants(lattice_index, ["left", "right"]) == \
            {"mid", "bottom"}

    def test_common_descendants_empty_input(self, lattice_index):
        assert queries.common_descendants(lattice_index, []) == set()


class TestExtremalSets:
    def test_least_common_ancestors(self, lattice_index):
        assert queries.least_common_ancestors(lattice_index, ["mid", "bottom-l"]) \
            == {"left"}
        assert queries.least_common_ancestors(
            lattice_index, ["bottom-l", "bottom-r"]) == {"top"}

    def test_lca_of_comparable_pair_is_the_upper(self, lattice_index):
        assert queries.least_common_ancestors(lattice_index, ["top", "mid"]) == \
            {"top"}

    def test_multiple_incomparable_lcas(self):
        graph = DiGraph([("p", "x"), ("q", "x"), ("p", "y"), ("q", "y")])
        index = IntervalTCIndex.build(graph)
        assert queries.least_common_ancestors(index, ["x", "y"]) == {"p", "q"}

    def test_greatest_common_descendants(self, lattice_index):
        assert queries.greatest_common_descendants(
            lattice_index, ["left", "right"]) == {"mid"}


class TestDisjointness:
    def test_disjoint_leaves(self, lattice_index):
        assert lattice_index.are_disjoint("bottom-l", "bottom-r")

    def test_shared_descendant_not_disjoint(self, lattice_index):
        assert not lattice_index.are_disjoint("left", "right")

    def test_comparable_not_disjoint(self, lattice_index):
        assert not lattice_index.are_disjoint("top", "mid")

    def test_comparability(self, lattice_index):
        assert queries.are_comparable(lattice_index, "top", "bottom")
        assert queries.are_comparable(lattice_index, "bottom", "top")
        assert not queries.are_comparable(lattice_index, "left", "right")


class TestLevels:
    def test_levels(self, lattice_index):
        assert queries.topological_level(lattice_index, "top") == 0
        assert queries.topological_level(lattice_index, "left") == 1
        assert queries.topological_level(lattice_index, "mid") == 2
        assert queries.topological_level(lattice_index, "bottom") == 3

    def test_longest_path_wins(self):
        # z is reachable directly from root AND through a long chain.
        graph = DiGraph([("r", "z"), ("r", "a"), ("a", "b"), ("b", "z")])
        index = IntervalTCIndex.build(graph)
        assert queries.topological_level(index, "z") == 3


class TestBatch:
    def test_path_exists_batch(self, lattice_index):
        answers = lattice_index.reachable_many(
            [("top", "bottom"), ("bottom", "top"), ("mid", "mid")])
        assert answers == [True, False, True]


class TestSetQueries:
    def test_reachable_from_set(self, lattice_index):
        reached = lattice_index.reachable_from_set(["bottom-l", "bottom-r"])
        assert reached == {"bottom-l", "bottom-r"}
        reached = lattice_index.reachable_from_set(["left"])
        assert reached == {"left", "mid", "bottom", "bottom-l"}

    def test_reachable_from_empty_set(self, lattice_index):
        assert lattice_index.reachable_from_set([]) == set()

    def test_reaching_set(self, lattice_index):
        reaching = lattice_index.reaching_set(["bottom-l", "bottom-r"])
        assert reaching == {"top", "left", "right", "bottom-l", "bottom-r"}

    def test_reaching_set_matches_union_of_predecessors(self, lattice_index):
        for targets in (["mid"], ["bottom", "bottom-l"], ["top"]):
            expected = set()
            for target in targets:
                expected |= lattice_index.predecessors(target)
            assert lattice_index.reaching_set(targets) == expected

    def test_any_reachable(self, lattice_index):
        assert lattice_index.any_reachable(["left"], ["bottom"])
        assert not lattice_index.any_reachable(["bottom-l"], ["bottom-r"])
        assert lattice_index.any_reachable(["bottom-l", "left"], ["bottom"])

    def test_any_reachable_empty(self, lattice_index):
        assert not lattice_index.any_reachable([], ["top"])
        assert not lattice_index.any_reachable(["top"], [])
