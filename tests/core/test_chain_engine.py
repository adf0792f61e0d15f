"""ChainCoverIndex as a first-class engine, plus Dilworth properties.

The decomposition algorithms themselves are covered by
``tests/baselines/test_chain_cover.py`` (which now exercises the same
class through its historical ``ChainTCIndex`` name); this file covers
what the promotion added: the full TCEngine surface, the width sandwich
on seeded DAGs, and observability.
"""

import random

import pytest

from repro.core.chain_cover import (ChainCoverIndex,
                                    greedy_chain_decomposition,
                                    optimal_chain_decomposition)
from repro.core.index import IntervalTCIndex
from repro.errors import NodeNotFoundError
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_dag
from repro.graph.metrics import width_by_levels
from repro.obs import MetricsRegistry, attach
from repro.testing.oracle import SetClosureOracle


def paper_graph() -> DiGraph:
    graph = DiGraph()
    for source, destination in [("a", "b"), ("b", "c"), ("b", "d"),
                                ("a", "e"), ("e", "d"), ("c", "f")]:
        graph.add_arc(source, destination)
    return graph


class TestEngineSurface:
    @pytest.mark.parametrize("method", ("greedy", "optimal"))
    def test_seeded_dag_differential(self, method):
        graph = random_dag(250, 2.0, 11)
        oracle = IntervalTCIndex.build(graph)
        index = ChainCoverIndex.build(graph, method=method)
        rng = random.Random(11)
        nodes = sorted(graph.nodes(), key=repr)
        for node in rng.sample(nodes, 30):
            assert index.successors(node) == oracle.successors(node)
            assert index.predecessors(node) == oracle.predecessors(node)
            assert index.count_successors(node) == \
                oracle.count_successors(node)
        pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(200)]
        assert index.reachable_many(pairs) == oracle.reachable_many(pairs)

    def test_point_query_is_one_probe_per_chain(self):
        # The fast path: reachable() consults only the source's
        # per-chain minimum vector, never walks the graph.
        index = ChainCoverIndex.build(paper_graph())
        assert index.reachable("a", "f")
        assert not index.reachable("f", "a")
        assert index.are_disjoint("f", "d")
        assert not index.are_disjoint("b", "e")

    def test_unknown_nodes_raise(self):
        index = ChainCoverIndex.build(paper_graph())
        with pytest.raises(NodeNotFoundError):
            index.reachable("ghost", "a")
        with pytest.raises(NodeNotFoundError):
            index.reaching_set(["ghost"])


class TestWidthSandwich:
    """Dilworth: max antichain == optimal chain count.

    The level histogram gives a real antichain, so its maximum is a
    lower bound; the greedy first-fit count is an upper bound.  The
    optimal (bipartite-matching) count must sit between the two on
    every seeded DAG — the property behind Jagadish's Theorem 2
    storage comparison.
    """

    @pytest.mark.parametrize("seed", range(10))
    def test_optimal_between_level_width_and_greedy(self, seed):
        graph = random_dag(60, 1.0 + (seed % 4) * 0.7, seed)
        optimal = len(optimal_chain_decomposition(graph))
        greedy = len(greedy_chain_decomposition(graph))
        assert width_by_levels(graph) <= optimal <= greedy <= \
            graph.num_nodes

    @pytest.mark.parametrize("seed", range(4))
    def test_chains_partition_the_nodes(self, seed):
        graph = random_dag(80, 2.0, seed)
        index = ChainCoverIndex.build(graph, method="optimal")
        covered = [node for chain in index.chains for node in chain]
        assert len(covered) == graph.num_nodes
        assert set(covered) == set(graph.nodes())


class TestObservability:
    def test_gauges_register_through_attach(self):
        registry = MetricsRegistry()
        index = attach(ChainCoverIndex.build(paper_graph()),
                       metrics=registry)
        gauges = registry.snapshot()["gauges"]
        assert gauges['tc_nodes{engine="ChainCoverIndex"}'] == len(index)
        assert gauges['tc_chain_count{engine="ChainCoverIndex"}'] == \
            index.num_chains


class TestBaselineAlias:
    def test_historical_name_is_the_engine(self):
        from repro.baselines.chain_cover import ChainTCIndex
        assert ChainTCIndex is ChainCoverIndex


class TestReverseQueries:
    """``predecessors`` / ``reaching_set`` read per-chain position lists
    built on the first reverse query; they must match the set oracle."""

    @staticmethod
    def oracle_for(graph: DiGraph) -> SetClosureOracle:
        return SetClosureOracle(graph.arcs(), nodes=graph.nodes())

    @pytest.mark.parametrize("method", ("greedy", "optimal"))
    @pytest.mark.parametrize("seed", range(3))
    def test_predecessors_match_the_oracle_on_every_node(self, method, seed):
        graph = random_dag(90, 1.5 + seed, seed)
        oracle = self.oracle_for(graph)
        index = ChainCoverIndex.build(graph, method=method)
        for node in graph.nodes():
            assert index.predecessors(node) == oracle.predecessors(node)
            assert index.predecessors(node, reflexive=False) == \
                oracle.predecessors(node) - {node}

    @pytest.mark.parametrize("method", ("greedy", "optimal"))
    def test_chain_heads_and_tails(self, method):
        graph = random_dag(120, 2.5, 5)
        oracle = self.oracle_for(graph)
        index = ChainCoverIndex.build(graph, method=method)
        heads = [chain[0] for chain in index.chains]
        tails = [chain[-1] for chain in index.chains]
        for node in heads + tails:
            assert index.predecessors(node) == oracle.predecessors(node)
        # A head is reached only from outside its chain (plus itself).
        for chain in index.chains:
            assert not index.predecessors(chain[0], reflexive=False) & \
                set(chain)
        # A tail is reached by its whole chain.
        for chain in index.chains:
            assert set(chain) <= index.predecessors(chain[-1])

    @pytest.mark.parametrize("method", ("greedy", "optimal"))
    def test_reaching_set_matches_the_oracle(self, method):
        graph = random_dag(100, 2.0, 7)
        oracle = self.oracle_for(graph)
        index = ChainCoverIndex.build(graph, method=method)
        rng = random.Random(7)
        nodes = sorted(graph.nodes(), key=repr)
        heads = [chain[0] for chain in index.chains]
        tails = [chain[-1] for chain in index.chains]
        groups = [[], heads[:3], tails[:3], heads[:2] + tails[-2:]]
        groups += [rng.sample(nodes, size) for size in (1, 4, 12, 40)]
        for group in groups:
            expected = set().union(*(oracle.predecessors(node)
                                     for node in group))
            assert index.reaching_set(group) == expected

    def test_paper_graph(self):
        index = ChainCoverIndex.build(paper_graph())
        assert index.predecessors("d") == {"a", "b", "d", "e"}
        assert index.predecessors("a", reflexive=False) == set()
        assert index.reaching_set(["f", "e"]) == {"a", "b", "c", "e", "f"}

    def test_unknown_destinations_raise(self):
        index = ChainCoverIndex.build(paper_graph())
        with pytest.raises(NodeNotFoundError):
            index.predecessors("ghost")
        with pytest.raises(NodeNotFoundError):
            index.predecessors_many(["a", "ghost"])
        index.predecessors("a")  # with the table built, too
        with pytest.raises(NodeNotFoundError):
            index.predecessors("ghost")
        with pytest.raises(NodeNotFoundError):
            index.reaching_set(["a", "ghost"])

    def test_table_is_built_lazily_and_not_counted(self):
        graph = random_dag(200, 2.0, 3)
        index = ChainCoverIndex.build(graph)
        entries, units = index.num_entries, index.storage_units
        stats = index.stats()
        assert index._reverse is None
        index.successors(next(iter(graph.nodes())))
        assert index._reverse is None
        index.predecessors(next(iter(graph.nodes())))
        assert index._reverse is not None
        assert (index.num_entries, index.storage_units) == (entries, units)
        assert index.stats() == stats

    def test_empty_graph(self):
        index = ChainCoverIndex.build(DiGraph())
        assert index.reaching_set([]) == set()
        with pytest.raises(NodeNotFoundError):
            index.predecessors("ghost")
