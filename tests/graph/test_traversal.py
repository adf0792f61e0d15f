"""Unit and property tests for graph traversals."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import CycleError, NodeNotFoundError
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_dag
from repro.graph.traversal import (
    ancestors_of,
    can_reach,
    dfs_preorder,
    find_cycle,
    is_acyclic,
    reachable_from,
    reverse_topological_order,
    topological_order,
)


class TestTopologicalOrder:
    def test_chain(self, chain5):
        assert topological_order(chain5) == [0, 1, 2, 3, 4]

    def test_respects_arcs(self, paper_dag):
        order = topological_order(paper_dag)
        position = {node: i for i, node in enumerate(order)}
        for source, destination in paper_dag.arcs():
            assert position[source] < position[destination]

    def test_reverse_is_reversed(self, paper_dag):
        assert reverse_topological_order(paper_dag) == \
            list(reversed(topological_order(paper_dag)))

    def test_cycle_raises_with_witness(self):
        graph = DiGraph([("a", "b"), ("b", "c"), ("c", "a")])
        with pytest.raises(CycleError) as excinfo:
            topological_order(graph)
        cycle = excinfo.value.cycle
        assert cycle[0] == cycle[-1]
        assert len(cycle) >= 3

    def test_empty_graph(self):
        assert topological_order(DiGraph()) == []

    @given(st.integers(0, 60), st.floats(0.5, 3.0), st.integers(0, 10_000))
    def test_random_dags_are_acyclic(self, n, degree, seed):
        graph = random_dag(n, min(degree, max(0, (n - 1) / 2)), seed)
        order = topological_order(graph)
        assert len(order) == n


class TestCycleDetection:
    def test_acyclic(self, paper_dag):
        assert is_acyclic(paper_dag)
        assert find_cycle(paper_dag) is None

    def test_two_cycle(self):
        graph = DiGraph([("a", "b"), ("b", "a")])
        assert not is_acyclic(graph)
        cycle = find_cycle(graph)
        assert cycle[0] == cycle[-1]
        assert set(cycle) == {"a", "b"}

    def test_cycle_beyond_first_component(self):
        graph = DiGraph([("r", "s"), ("x", "y"), ("y", "z"), ("z", "x")])
        cycle = find_cycle(graph)
        assert set(cycle) == {"x", "y", "z"}


class TestDFS:
    def test_preorder_starts_at_root(self, paper_dag):
        walk = list(dfs_preorder(paper_dag, "a"))
        assert walk[0] == "a"
        assert set(walk) == set(paper_dag.nodes())

    def test_unknown_start(self, diamond):
        with pytest.raises(NodeNotFoundError):
            list(dfs_preorder(diamond, "ghost"))


class TestReachability:
    def test_reflexive_by_default(self, diamond):
        assert "a" in reachable_from(diamond, "a")
        assert can_reach(diamond, "a", "a")

    def test_irreflexive_option(self, diamond):
        assert "a" not in reachable_from(diamond, "a", reflexive=False)

    def test_forward_only(self, diamond):
        assert reachable_from(diamond, "b") == {"b", "d"}
        assert not can_reach(diamond, "d", "a")

    def test_ancestors(self, diamond):
        assert ancestors_of(diamond, "d") == {"a", "b", "c", "d"}
        assert ancestors_of(diamond, "d", reflexive=False) == {"a", "b", "c"}

    def test_unknown_nodes(self, diamond):
        with pytest.raises(NodeNotFoundError):
            can_reach(diamond, "ghost", "a")
        with pytest.raises(NodeNotFoundError):
            can_reach(diamond, "a", "ghost")
        with pytest.raises(NodeNotFoundError):
            ancestors_of(diamond, "ghost")

    @given(st.integers(2, 40), st.integers(0, 10_000))
    def test_can_reach_agrees_with_reachable_from(self, n, seed):
        graph = random_dag(n, min(1.5, (n - 1) / 2), seed)
        nodes = list(graph.nodes())
        source = nodes[seed % n]
        reached = reachable_from(graph, source)
        for destination in nodes[:10]:
            assert can_reach(graph, source, destination) == (destination in reached)
