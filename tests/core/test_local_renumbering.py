"""Tests for the Section 4.1 local renumbering (shift to the first hole)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.index import IntervalTCIndex
from repro.core.updates import free_ranges_under, make_room
from repro.errors import IndexStateError, NodeNotFoundError
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_dag
from repro.graph.traversal import reachable_from


class TestMakeRoom:
    def test_opens_exactly_one_slot_under_leaf(self):
        index = IntervalTCIndex.build(DiGraph([("a", "b")]), gap=1)
        assert free_ranges_under(index, "b") == []
        index.make_room("b")
        ranges = free_ranges_under(index, "b")
        assert sum(hi - lo + 1 for lo, hi in ranges) == 1
        index.check_invariants()
        index.verify()

    def test_preserves_all_answers(self, paper_dag):
        index = IntervalTCIndex.build(paper_dag, gap=1)
        answers = {node: index.successors(node) for node in index.nodes()}
        for node in list(index.nodes()):
            index.make_room(node)
            index.check_invariants()
            assert {n: index.successors(n) for n in index.nodes()} == answers

    def test_does_not_change_stride(self, diamond):
        index = IntervalTCIndex.build(diamond, gap=1)
        index.make_room("d")
        assert index.gap == 1

    def test_unknown_parent(self, diamond):
        index = IntervalTCIndex.build(diamond)
        with pytest.raises(NodeNotFoundError):
            index.make_room("ghost")

    def test_shift_is_local(self):
        """Numbers above the first hole never move."""
        index = IntervalTCIndex.build(DiGraph([(0, 1), (0, 2), (0, 3)]), gap=4)
        untouched = {node: number for node, number in index.postorder.items()
                     if number > index.postorder[1] + 4}
        index.make_room(1)
        for node, number in untouched.items():
            assert index.postorder[node] == number


class TestLocalStrategy:
    def test_invalid_strategy_rejected(self, diamond):
        with pytest.raises(IndexStateError):
            IntervalTCIndex.build(diamond, renumber_strategy="sideways")

    def test_dense_insert_stream(self):
        graph = random_dag(25, 2, 3)
        index = IntervalTCIndex.build(graph, gap=1, renumber_strategy="local")
        leaf = next(node for node in graph if graph.out_degree(node) == 0)
        parent = leaf
        for step in range(12):
            index.add_node(("deep", step), parents=[parent])
            parent = ("deep", step)
        for step in range(8):
            index.add_node(("wide", step), parents=[leaf])
        assert index.gap == 1          # local shifts never widen the stride
        index.check_invariants()
        index.verify()

    def test_hole_at_a_reserved_lo_moves_that_lo(self):
        """At gap >= 2 the first unused number above a parent can be the
        reserved lo of the next subtree's tree interval; that lo must
        shift with the numbers below it, or the subtree's intervals
        start covering the number shifted into the hole."""
        graph = random_dag(30, 2.0, random.Random(0))
        index = IntervalTCIndex.build(graph, gap=2, renumber_strategy="local")
        index.add_node("x", [4])
        index.add_node("y", [4])
        assert not index.reachable(16, 4)
        index.check_invariants()
        index.verify()

    @pytest.mark.parametrize("gap", [1, 2, 8])
    def test_mixed_stream_stays_exact(self, gap):
        """Inserts that exhaust the gaps, mixed with removals that open
        holes, under the local strategy."""
        rng = random.Random(gap)
        index = IntervalTCIndex.build(random_dag(30, 2.0, rng), gap=gap,
                                      renumber_strategy="local")
        for step in range(80):
            nodes = sorted(index.nodes(), key=repr)
            roll = rng.random()
            if roll < 0.15:
                index.remove_arc(*rng.choice(sorted(index.graph.arcs(),
                                                    key=repr)))
            elif roll < 0.25:
                index.remove_node(rng.choice(nodes))
            else:
                index.add_node(("n", step),
                               rng.sample(nodes, rng.choice((1, 2))))
        assert index.renumber_count == 0
        index.check_invariants()
        index.verify()

    def test_local_and_global_agree_semantically(self):
        graph = random_dag(20, 1.5, 9)
        local = IntervalTCIndex.build(graph, gap=1, renumber_strategy="local")
        global_ = IntervalTCIndex.build(graph.copy(), gap=1,
                                        renumber_strategy="global")
        for step in range(10):
            local.add_node(("n", step), parents=[step % 20])
            global_.add_node(("n", step), parents=[step % 20])
        for node in local.nodes():
            assert local.successors(node) == global_.successors(node)


@settings(max_examples=30)
@given(st.integers(2, 25), st.floats(0.5, 2.0), st.integers(0, 5000),
       st.integers(0, 24))
def test_make_room_property(n, degree, seed, node_pick):
    graph = random_dag(n, min(degree, (n - 1) / 2), seed)
    index = IntervalTCIndex.build(graph, gap=1)
    victim = sorted(graph.nodes())[node_pick % n]
    expected = {node: reachable_from(graph, node) for node in graph}
    make_room(index, victim)
    index.check_invariants()
    for node in graph:
        assert index.successors(node) == expected[node]
    # The opened slot really is claimable.
    index.add_node("fresh", parents=[victim])
    assert index.reachable(victim, "fresh")
    index.verify()
