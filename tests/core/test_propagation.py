"""Vectorized interval propagation must equal the sequential pass bit
for bit: same graph, same gap => identical interval sets on every node.

The python implementation (:func:`repro.core.labeling.propagate_intervals`)
is the reference; the vectorized kernel replays the same reverse
topological order as per-level segmented sweeps.  Any divergence is an
indexing bug, so these tests compare the *full* label tables, not
just query answers.
"""

import random

import pytest

from repro.core.index import IntervalTCIndex
from repro.core.propagation import (PROPAGATION_MODES,
                                    propagate_intervals_vectorized,
                                    run_propagation)
from repro.core.rtcf import rtcf_bytes
from repro.errors import ReproError
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_dag, random_dag_local
from repro.testing.oracle import SetClosureOracle, compare_engine

from .test_rtcf import reference_bytes

MODES = [mode for mode in PROPAGATION_MODES if mode != "python"]


def interval_table(index):
    return {node: sorted(index.intervals[node])
            for node in index.graph.nodes()}


def graphs():
    rng = random.Random(20260808)
    yield "paper", DiGraph(arcs=[("a", "b"), ("b", "c"), ("b", "d"),
                                 ("a", "e"), ("e", "d"), ("c", "f")])
    yield "chain", DiGraph(arcs=[(i, i + 1) for i in range(40)])
    yield "diamond-stack", DiGraph(
        arcs=[(i, i + 1 + (i % 2)) for i in range(30)]
        + [(i, i + 2) for i in range(0, 30, 2)])
    yield "empty", DiGraph()
    yield "singletons", DiGraph(nodes=["x", "y", "z"])
    for seed in (1, 7, 23):
        yield f"dag-{seed}", random_dag(120, 2.5, random.Random(seed))
    yield "local", random_dag_local(90, 3.0, rng, window=12)
    yield "dense", random_dag(45, 6.0, rng)


class TestParity:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("gap", [1, 4, 32])
    def test_full_table_parity(self, mode, gap):
        for name, graph in graphs():
            reference = IntervalTCIndex.build(graph, gap=gap)
            candidate = IntervalTCIndex.build(graph, gap=gap,
                                              propagation=mode)
            assert interval_table(candidate) == interval_table(reference), \
                f"{mode} diverged from python on {name!r} at gap={gap}"
            assert candidate.postorder == reference.postorder

    @pytest.mark.parametrize("mode", MODES)
    def test_queries_after_vectorized_build(self, mode):
        graph = random_dag(150, 3.0, random.Random(5))
        reference = IntervalTCIndex.build(graph)
        candidate = IntervalTCIndex.build(graph, propagation=mode)
        nodes = sorted(graph.nodes())
        for node in nodes[::7]:
            assert candidate.successors(node) == reference.successors(node)
            assert (candidate.predecessors(node)
                    == reference.predecessors(node))

    @pytest.mark.parametrize("policy", ["alg1", "min_pred"])
    def test_parity_across_tree_cover_policies(self, policy):
        graph = random_dag(100, 2.0, random.Random(9))
        reference = IntervalTCIndex.build(graph, policy=policy)
        candidate = IntervalTCIndex.build(graph, policy=policy,
                                          propagation="vectorized")
        assert interval_table(candidate) == interval_table(reference)

    def test_frozen_views_are_bit_identical(self):
        from repro.core.rtcf import rtcf_bytes
        graph = random_dag(80, 2.5, random.Random(2))
        python_bytes = rtcf_bytes(IntervalTCIndex.build(graph).freeze())
        vector_bytes = rtcf_bytes(
            IntervalTCIndex.build(graph, propagation="vectorized").freeze())
        assert python_bytes == vector_bytes


class TestSweepKeyOverflow:
    """Gaps so wide that the level sweep's int64 keys overflow: a
    one-node level falls back to ``lexsort`` and a wider level to the
    sequential ``_sweep_python``; both must still equal the python pass."""

    #: 16 nodes: single-node chain levels plus a two-root level whose
    #: top number is 16 * 2**57 = 2**61.
    ARCS = ([(i, i + 1) for i in range(7)]
            + [(8, 10), (9, 10), (8, 11), (9, 11), (10, 12), (11, 13),
               (12, 3), (13, 14), (9, 15), (8, 0)])
    GAP = 2**57

    @pytest.fixture
    def calls(self, monkeypatch):
        import numpy
        import repro.core.propagation as propagation_module
        counts = {"lexsort": 0, "sweep_python": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(numpy, "lexsort",
                            counted("lexsort", numpy.lexsort))
        monkeypatch.setattr(
            propagation_module, "_sweep_python",
            counted("sweep_python", propagation_module._sweep_python))
        return counts

    def test_both_fallbacks_match_python(self, calls):
        graph = DiGraph(arcs=self.ARCS)
        assert len(graph) == 16
        candidate = IntervalTCIndex.build(graph, gap=self.GAP,
                                          propagation="vectorized")
        assert calls["lexsort"] > 0 and calls["sweep_python"] > 0
        reference = IntervalTCIndex.build(graph, gap=self.GAP)
        assert interval_table(candidate) == interval_table(reference)

    def test_rank_space_route_stays_on_the_fast_sweep(self, calls):
        from repro.core.rtcf import rtcf_bytes
        from repro.factory import open_index
        graph = DiGraph(arcs=self.ARCS)
        frozen = open_index(graph, engine="frozen", propagation="vectorized",
                            gap=self.GAP)
        assert calls == {"lexsort": 0, "sweep_python": 0}
        assert rtcf_bytes(frozen) == rtcf_bytes(
            IntervalTCIndex.build(graph, gap=self.GAP).freeze())


class TestRenumberAfterVectorizedBuild:
    """Gap exhaustion after a vectorized build: inserts at gap 2 run out
    of numbers and force a renumbering pass, after which the index must
    still match the oracle, a python-built twin fed the same ops, and
    the reference freeze."""

    def test_gap_exhaustion_then_renumbering(self):
        rng = random.Random(2027)
        graph = random_dag(50, 2.0, rng)
        # Each index adopts the graph it is built from: give each a copy.
        vectorized = IntervalTCIndex.build(graph.copy(), gap=2,
                                           propagation="vectorized")
        python = IntervalTCIndex.build(graph.copy(), gap=2,
                                       propagation="python")
        oracle = SetClosureOracle(arcs=graph.arcs(), nodes=graph.nodes())
        parents_pool = sorted(graph.nodes())
        step = 0
        # Keep inserting a few nodes past the first renumbering, so the
        # renumbered numbering takes inserts too.
        while vectorized.renumber_count == 0 or step % 8:
            assert step < 400, "gap 2 never ran out"
            node = f"new{step}"
            parents = rng.sample(parents_pool, 2)
            for index in (vectorized, python):
                index.add_node(node, parents=parents)
            for parent in parents:
                oracle.add_arc(parent, node)
            step += 1
        assert python.renumber_count == vectorized.renumber_count
        assert interval_table(vectorized) == interval_table(python)
        compare_engine("vectorized", vectorized, oracle, predecessors=True)
        frozen = vectorized.freeze()
        compare_engine("frozen", frozen, oracle, predecessors=True)
        assert rtcf_bytes(frozen) == reference_bytes(vectorized)
        assert rtcf_bytes(frozen) == rtcf_bytes(python.freeze())


class TestDispatch:
    def test_unknown_mode_rejected(self):
        graph = DiGraph(arcs=[("a", "b")])
        with pytest.raises(ReproError, match="propagation"):
            IntervalTCIndex.build(graph, propagation="simd")

    def test_parallel_mode_is_gone(self):
        """The process-pool mode never beat the vectorized kernel on a
        measured box and was removed; asking for it is an unknown mode."""
        graph = DiGraph(arcs=[("a", "b")])
        with pytest.raises(ReproError, match="unknown propagation mode"):
            IntervalTCIndex.build(graph, propagation="parallel")

    def test_python_mode_is_the_default(self):
        graph = DiGraph(arcs=[("a", "b")])
        built = IntervalTCIndex.build(graph)
        explicit = IntervalTCIndex.build(graph, propagation="python")
        assert interval_table(built) == interval_table(explicit)

    def test_run_propagation_signature(self):
        """The dispatcher is what build() and label_graph() call; it must
        accept every advertised mode."""
        from repro.core.labeling import assign_postorder
        from repro.core.tree_cover import build_tree_cover
        for mode in PROPAGATION_MODES:
            graph = DiGraph(arcs=[("a", "b"), ("a", "c"), ("b", "c")])
            cover = build_tree_cover(graph)
            labeling = assign_postorder(cover, gap=8)
            run_propagation(graph, cover, labeling, mode)
            assert labeling.intervals["a"].covers(
                labeling.postorder["c"])
