"""Unit tests for IntervalTCIndex: build, queries, accounting, verification."""

import pytest

from repro.core.index import DEFAULT_GAP, IntervalTCIndex
from repro.core.tree_cover import POLICIES
from repro.errors import CycleError, IndexStateError, NodeNotFoundError
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_dag, random_tree
from repro.graph.traversal import reachable_from


class TestBuild:
    def test_build_default(self, paper_dag):
        index = IntervalTCIndex.build(paper_dag)
        assert index.gap == DEFAULT_GAP
        assert index.policy == "alg1"
        index.check_invariants()
        index.verify()

    def test_from_arcs(self):
        index = IntervalTCIndex.from_arcs([("x", "y"), ("y", "z")])
        assert index.reachable("x", "z")

    def test_cyclic_input_rejected(self):
        graph = DiGraph([("a", "b"), ("b", "a")])
        with pytest.raises(CycleError):
            IntervalTCIndex.build(graph)

    def test_empty_graph(self):
        index = IntervalTCIndex.build(DiGraph())
        assert len(index) == 0
        assert index.num_intervals == 0

    def test_single_node(self):
        index = IntervalTCIndex.build(DiGraph(nodes=["only"]))
        assert index.reachable("only", "only")
        assert index.successors("only") == {"only"}

    @pytest.mark.parametrize("policy", POLICIES)
    def test_all_policies_are_correct(self, policy, paper_dag):
        index = IntervalTCIndex.build(paper_dag, policy=policy, rng=1)
        index.verify()

    @pytest.mark.parametrize("gap", [1, 2, 17, 1024])
    def test_any_gap_is_correct(self, gap, paper_dag):
        index = IntervalTCIndex.build(paper_dag, gap=gap)
        index.verify()
        assert index.gap == gap

    def test_build_takes_ownership_of_the_graph(self, paper_dag):
        # No defensive copy: the index keeps (and updates) the caller's
        # graph, so two indexes need two copies.  Sharing one graph made
        # the second index's gap-exhaustion renumber die with KeyError.
        owned = IntervalTCIndex.build(paper_dag)
        assert owned.graph is paper_dag
        first = IntervalTCIndex.build(paper_dag.copy(), gap=1)
        second = IntervalTCIndex.build(paper_dag.copy(), gap=1)
        for index in (first, second):
            index.add_node("x", parents=["d"])
            assert index.renumber_count == 1
            assert index.reachable("a", "x")
            index.verify()


class TestReachable:
    def test_reflexive(self, paper_dag):
        index = IntervalTCIndex.build(paper_dag)
        for node in paper_dag:
            assert index.reachable(node, node)

    def test_matches_ground_truth(self, paper_dag):
        index = IntervalTCIndex.build(paper_dag)
        for source in paper_dag:
            truth = reachable_from(paper_dag, source)
            for destination in paper_dag:
                assert index.reachable(source, destination) == (destination in truth)

    def test_unknown_nodes(self, paper_dag):
        index = IntervalTCIndex.build(paper_dag)
        with pytest.raises(NodeNotFoundError):
            index.reachable("ghost", "a")
        with pytest.raises(NodeNotFoundError):
            index.reachable("a", "ghost")


class TestSuccessors:
    def test_reflexive_and_strict(self, diamond):
        index = IntervalTCIndex.build(diamond)
        assert index.successors("a") == {"a", "b", "c", "d"}
        assert index.successors("a", reflexive=False) == {"b", "c", "d"}
        assert index.successors("d", reflexive=False) == set()

    def test_count_successors(self, paper_dag):
        index = IntervalTCIndex.build(paper_dag)
        for node in paper_dag:
            assert index.count_successors(node) == len(index.successors(node))
            assert index.count_successors(node, reflexive=False) == \
                len(index.successors(node)) - 1

    def test_count_successors_with_overlapping_intervals(self):
        graph = random_dag(60, 3, 4)
        index = IntervalTCIndex.build(graph, gap=1, merge=True)
        for node in list(graph.nodes())[:20]:
            assert index.count_successors(node) == len(index.successors(node))

    def test_unknown_node(self, diamond):
        index = IntervalTCIndex.build(diamond)
        with pytest.raises(NodeNotFoundError):
            index.successors("ghost")
        with pytest.raises(NodeNotFoundError):
            index.count_successors("ghost")
        with pytest.raises(NodeNotFoundError):
            next(index.iter_successors("ghost"))

    def test_iter_successors_matches_set(self, paper_dag):
        index = IntervalTCIndex.build(paper_dag)
        for node in paper_dag:
            lazy = list(index.iter_successors(node))
            assert len(lazy) == len(set(lazy))          # duplicate-free
            assert set(lazy) == index.successors(node)
            assert set(index.iter_successors(node, reflexive=False)) == \
                index.successors(node, reflexive=False)

    def test_iter_successors_with_overlapping_intervals(self):
        graph = random_dag(50, 3, 8)
        index = IntervalTCIndex.build(graph, gap=1, merge=True)
        for node in list(graph.nodes())[:15]:
            lazy = list(index.iter_successors(node))
            assert len(lazy) == len(set(lazy))
            assert set(lazy) == index.successors(node)

    def test_iter_successors_is_lazy(self, chain5):
        index = IntervalTCIndex.build(chain5)
        iterator = index.iter_successors(0)
        assert next(iterator) is not None   # no full materialisation needed


class TestPredecessors:
    def test_basic(self, diamond):
        index = IntervalTCIndex.build(diamond)
        assert index.predecessors("d") == {"a", "b", "c", "d"}
        assert index.predecessors("d", reflexive=False) == {"a", "b", "c"}
        assert index.predecessors("a", reflexive=False) == set()

    def test_matches_reverse_ground_truth(self, paper_dag):
        index = IntervalTCIndex.build(paper_dag)
        reversed_graph = paper_dag.reverse()
        for node in paper_dag:
            assert index.predecessors(node) == reachable_from(reversed_graph, node)

    def test_unknown_node(self, diamond):
        with pytest.raises(NodeNotFoundError):
            IntervalTCIndex.build(diamond).predecessors("ghost")


class TestAccounting:
    def test_tree_costs_one_interval_per_node(self):
        tree = random_tree(50, 3)
        index = IntervalTCIndex.build(tree)
        assert index.num_intervals == 50
        assert index.storage_units == 100

    def test_stats_consistency(self, paper_dag):
        index = IntervalTCIndex.build(paper_dag)
        stats = index.stats()
        assert stats.num_nodes == paper_dag.num_nodes
        assert stats.num_arcs == paper_dag.num_arcs
        assert stats.num_intervals == stats.num_tree_intervals + \
            stats.num_non_tree_intervals
        assert stats.num_tree_intervals == paper_dag.num_nodes
        assert stats.storage_units == 2 * stats.num_intervals
        assert stats.policy == "alg1"
        assert stats.as_dict()["num_nodes"] == paper_dag.num_nodes
        assert stats.max_intervals_per_node >= 1
        assert stats.numbering == "integer"

    def test_tree_depth_stat(self, chain5):
        stats = IntervalTCIndex.build(chain5).stats()
        assert stats.tree_depth == 5

    def test_max_intervals_stat(self):
        from repro.graph.generators import bipartite_worst_case
        index = IntervalTCIndex.build(bipartite_worst_case(4, 5))
        # Every source holds one interval per uncovered sink + its own.
        assert index.stats().max_intervals_per_node == 6

    def test_merge_never_increases(self, paper_dag):
        plain = IntervalTCIndex.build(paper_dag, gap=1)
        merged = IntervalTCIndex.build(paper_dag, gap=1, merge=True)
        assert merged.num_intervals <= plain.num_intervals
        merged.verify()


class TestContainerProtocol:
    def test_contains_len_nodes(self, diamond):
        index = IntervalTCIndex.build(diamond)
        assert "a" in index and "ghost" not in index
        assert len(index) == 4
        assert set(index.nodes()) == set(diamond.nodes())


class TestVerification:
    def test_verify_detects_corruption(self, diamond):
        index = IntervalTCIndex.build(diamond)
        # Corrupt: drop all intervals from a node that has successors.
        from repro.core.intervals import IntervalSet, Interval
        index.intervals["a"] = IntervalSet(
            [Interval(index.postorder["a"], index.postorder["a"])])
        with pytest.raises(IndexStateError):
            index.verify()

    def test_check_invariants_detects_desync(self, diamond):
        index = IntervalTCIndex.build(diamond)
        index.used_numbers.append(10**9)
        with pytest.raises(IndexStateError):
            index.check_invariants()

    def test_rebuild_equivalent(self, paper_dag):
        index = IntervalTCIndex.build(paper_dag)
        rebuilt = index.rebuild()
        for source in paper_dag:
            assert index.successors(source) == rebuilt.successors(source)
