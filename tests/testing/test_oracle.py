"""The oracle layer: independent ground truth and engine comparison."""

import pytest

from repro.core.index import IntervalTCIndex
from repro.graph.digraph import DiGraph
from repro.testing.oracle import (
    ENGINE_FACTORIES,
    DifferentialMismatch,
    SetClosureOracle,
    build_engines,
    compare_engine,
)


def test_oracle_closure_reflexive_and_transitive():
    oracle = SetClosureOracle(arcs=[("a", "b"), ("b", "c")])
    assert oracle.reachable("a", "a")
    assert oracle.reachable("a", "c")
    assert not oracle.reachable("c", "a")
    assert oracle.successors("a") == {"a", "b", "c"}
    assert oracle.predecessors("c") == {"a", "b", "c"}


def test_oracle_mutations_mirror_index_api():
    oracle = SetClosureOracle(arcs=[(0, 1), (1, 2), (0, 3)])
    oracle.remove_arc(1, 2)
    assert not oracle.reachable(0, 2)
    oracle.add_arc(3, 2)
    assert oracle.reachable(0, 2)
    oracle.remove_node(3)
    assert not oracle.reachable(0, 2)
    assert 3 not in oracle
    assert (3, 2) not in oracle.arcs()


def test_oracle_is_independent_of_the_index_graph():
    graph = DiGraph([(0, 1)])
    oracle = SetClosureOracle(arcs=[(0, 1)])
    index = IntervalTCIndex.build(graph)
    # Mutate the index behind the oracle's back: the oracle must not follow.
    index.add_node(2, parents=[1])
    assert 2 not in oracle
    with pytest.raises(DifferentialMismatch):
        compare_engine("interval", index, oracle)


def test_every_registered_engine_matches_on_a_dag():
    arcs = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (0, 5)]
    oracle = SetClosureOracle(arcs=arcs)
    engines = build_engines(oracle, list(ENGINE_FACTORIES))
    assert set(engines) == set(ENGINE_FACTORIES)
    for name, engine in engines.items():
        assert compare_engine(name, engine, oracle) > 0


def test_pairwise_fallback_for_reachable_only_engines():
    class ReachableOnly:
        def reachable(self, source, destination):
            return True  # wrong for most pairs

    oracle = SetClosureOracle(arcs=[(0, 1), (2, 3)])
    with pytest.raises(DifferentialMismatch):
        compare_engine("stub", ReachableOnly(), oracle)


class TestBatchChecks:
    """compare_engine checks the batch paths apart from the point and
    set queries: an engine wrong only there is caught."""

    ARCS = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (0, 5)]

    def engine(self):
        from repro.core.chain_cover import ChainCoverIndex
        from repro.graph.digraph import DiGraph
        return ChainCoverIndex.build(DiGraph(self.ARCS))

    def test_wrong_reachable_many_is_caught(self):
        engine = self.engine()
        right = engine.reachable_many
        engine.reachable_many = lambda pairs: [
            not answer if index == 7 else answer
            for index, answer in enumerate(right(pairs))]
        with pytest.raises(DifferentialMismatch, match="reachable_many"):
            compare_engine("chain", engine, SetClosureOracle(arcs=self.ARCS))

    @pytest.mark.parametrize("bad_group", [
        pytest.param(lambda group: not group, id="empty"),
        pytest.param(lambda group: len(group) != len(set(group)),
                     id="repeated-source")])
    def test_wrong_semijoin_is_caught(self, bad_group):
        engine = self.engine()
        right = engine.reachable_from_set

        def reachable_from_set(sources):
            sources = list(sources)
            answer = right(sources)
            return answer | {"intruder"} if bad_group(sources) else answer

        engine.reachable_from_set = reachable_from_set
        with pytest.raises(DifferentialMismatch, match="reachable_from_set"):
            compare_engine("chain", engine, SetClosureOracle(arcs=self.ARCS))

    def test_groups_are_seeded(self):
        from repro.testing.oracle import _source_groups
        nodes = list(range(30))
        groups = _source_groups(nodes)
        assert groups == _source_groups(nodes)
        assert groups[:2] == [[], [0, 0]]
        assert len(groups[-1]) != len(set(groups[-1]))
        assert _source_groups([]) == [[]]
