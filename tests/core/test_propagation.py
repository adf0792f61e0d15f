"""The propagation kernel must equal the paper's sequential pass bit for
bit: same graph, same gap => identical interval sets on every node.

The sequential pass (:func:`repro.core.labeling.propagate_intervals`,
built by :func:`repro.testing.oracle.build_reference_index`) is the
reference.  Every build runs the kernel (:mod:`repro.core.propagation`):
the mutable build in number space (``vectorized``), the direct frozen
build in rank space (``direct``).  Any divergence is an indexing bug, so
these tests compare the *full* label tables, not just query answers.
"""

import random
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.core.index import DEFAULT_GAP, IntervalTCIndex, build_cover
from repro.core.intervals import IntervalSet
from repro.core.labeling import Labeling, merge_all, propagate_intervals
from repro.core.frozen import _numpy
from repro.core.propagation import _levelize, _sweep, run_propagation
from repro.core.rtcf import rtcf_bytes
from repro.errors import ReproError
from repro.factory import open_index
from repro.graph.digraph import DiGraph
from repro.graph.generators import path_graph, random_dag, random_dag_local
from repro.graph.traversal import graph_csr, topological_order
from repro.testing.oracle import (SetClosureOracle, build_reference_index,
                                  compare_engine)

from .test_rtcf import reference_bytes

#: The kernel's two callers: ``IntervalTCIndex.build`` and the direct
#: frozen build behind ``open_index(graph, engine="frozen")``.
ROUTES = ("vectorized", "direct")

#: Numbering gaps: the paper's 1, small and default strides, one whose
#: raw numbers would overflow the level sweep's int64 keys, and one whose
#: numbers do not fit int64 at all.  The kernel sees only end-point
#: codes below 2n, so all of them take the same path.
GAPS = [1, 4, 32, pytest.param(2**57, id="2**57"),
        pytest.param(2**62, id="2**62")]


def interval_table(index):
    return {node: sorted(index.intervals[node])
            for node in index.graph.nodes()}


def level_sizes(graph):
    order = build_cover(graph).order
    return Counter(_levelize(*graph_csr(graph, order))).values()


def mixed_levels():
    """One-node levels (a 60-node spine) between wide ones: leaf fans at
    level 0, and side nodes that share a spine node's level."""
    arcs = [(f"s{i}", f"s{i + 1}") for i in range(59)]
    arcs += [(f"s{i}", f"leaf{i}-{k}") for i in range(0, 60, 5)
             for k in range(4)]
    arcs += [(f"side{j}", f"s{j}") for j in range(1, 60, 7)]
    arcs += [(f"side{j}", f"leaf{5 * (j // 10)}-1") for j in range(1, 60, 7)]
    return DiGraph(arcs=arcs)


def graphs():
    rng = random.Random(20260808)
    yield "paper", DiGraph(arcs=[("a", "b"), ("b", "c"), ("b", "d"),
                                 ("a", "e"), ("e", "d"), ("c", "f")])
    yield "chain", DiGraph(arcs=[(i, i + 1) for i in range(40)])
    yield "path-2k", path_graph(2000)
    yield "mixed-levels", mixed_levels()
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
    def test_mixed_levels_has_both_level_kinds(self):
        sizes = set(level_sizes(mixed_levels()))
        assert 1 in sizes and max(sizes) > 1

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("gap", GAPS)
    def test_full_table_parity(self, route, gap):
        for name, graph in graphs():
            reference = build_reference_index(graph.copy(), gap=gap)
            expected = reference.freeze()
            if route == "vectorized":
                candidate = IntervalTCIndex.build(graph.copy(), gap=gap)
                assert interval_table(candidate) == interval_table(
                    reference), f"kernel diverged on {name!r} at gap={gap}"
                assert candidate.postorder == reference.postorder
                frozen = candidate.freeze()
            else:
                frozen = open_index(graph, engine="frozen", gap=gap)
            assert frozen.to_buffers() == expected.to_buffers(), name
            assert rtcf_bytes(frozen) == rtcf_bytes(expected), name

    @pytest.mark.parametrize("route", ROUTES)
    def test_queries_after_vectorized_build(self, route):
        graph = random_dag(150, 3.0, random.Random(5))
        reference = build_reference_index(graph.copy(), gap=DEFAULT_GAP)
        candidate = (IntervalTCIndex.build(graph.copy())
                     if route == "vectorized"
                     else open_index(graph, engine="frozen"))
        nodes = sorted(graph.nodes())
        for node in nodes[::7]:
            assert candidate.successors(node) == reference.successors(node)
            assert (candidate.predecessors(node)
                    == reference.predecessors(node))

    @pytest.mark.parametrize("policy", ["alg1", "min_pred"])
    def test_parity_across_tree_cover_policies(self, policy):
        graph = random_dag(100, 2.0, random.Random(9))
        reference = build_reference_index(graph.copy(), gap=DEFAULT_GAP,
                                          policy=policy)
        candidate = IntervalTCIndex.build(graph.copy(), policy=policy)
        assert interval_table(candidate) == interval_table(reference)

    def test_frozen_views_are_bit_identical(self):
        graph = random_dag(80, 2.5, random.Random(2))
        reference_blob = rtcf_bytes(
            build_reference_index(graph.copy(), gap=DEFAULT_GAP).freeze())
        assert rtcf_bytes(IntervalTCIndex.build(graph.copy()).freeze()) \
            == reference_blob
        assert rtcf_bytes(open_index(graph, engine="frozen")) \
            == reference_blob


class TestSweepKeyOverflow:
    """Gaps so wide that raw numbers would overflow the level sweep's
    int64 keys.  Every route feeds the kernel codes below 2n, so wide
    gaps stay on the fast sweep; the ``lexsort`` sort that very large
    graphs need is tested on :func:`_sweep` directly."""

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
        counts = {"lexsort": 0, "merge_scalar": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(numpy, "lexsort",
                            counted("lexsort", numpy.lexsort))
        monkeypatch.setattr(
            propagation_module, "_merge_scalar",
            counted("merge_scalar", propagation_module._merge_scalar))
        return counts

    def test_wide_gap_build_stays_on_the_fast_sweep(self, calls,
                                                    monkeypatch):
        """Every level of 16 nodes gathers few runs and takes the scalar
        merge; with the scalar cut at 0 every level takes the sweep."""
        import repro.core.propagation as propagation_module
        graph = DiGraph(arcs=self.ARCS)
        assert len(graph) == 16
        reference = build_reference_index(graph.copy(), gap=self.GAP)
        candidate = IntervalTCIndex.build(graph.copy(), gap=self.GAP)
        assert calls == {"lexsort": 0, "merge_scalar": len(graph)}
        assert interval_table(candidate) == interval_table(reference)
        monkeypatch.setattr(propagation_module, "SCALAR_RUNS", 0)
        candidate = IntervalTCIndex.build(graph.copy(), gap=self.GAP)
        assert calls == {"lexsort": 0, "merge_scalar": len(graph)}
        assert interval_table(candidate) == interval_table(reference)

    def test_rank_space_route_stays_on_the_fast_sweep(self, calls,
                                                      monkeypatch):
        import repro.core.propagation as propagation_module
        graph = DiGraph(arcs=self.ARCS)
        expected = rtcf_bytes(
            build_reference_index(graph.copy(), gap=self.GAP).freeze())
        frozen = open_index(graph, engine="frozen", gap=self.GAP)
        assert calls == {"lexsort": 0, "merge_scalar": len(graph)}
        assert rtcf_bytes(frozen) == expected
        monkeypatch.setattr(propagation_module, "SCALAR_RUNS", 0)
        frozen = open_index(graph, engine="frozen", gap=self.GAP)
        assert calls == {"lexsort": 0, "merge_scalar": len(graph)}
        assert rtcf_bytes(frozen) == expected

    def test_numbers_beyond_int64_come_back_exact(self):
        graph = DiGraph(arcs=self.ARCS + [("a", "b"), ("b", "c")])
        built = IntervalTCIndex.build(graph.copy(), gap=2**62)
        assert max(built.postorder.values()) == 19 * 2**62
        assert interval_table(built) == interval_table(
            build_reference_index(graph.copy(), gap=2**62))

    def test_lexsort_sweep_matches_the_argsort_sweep(self, calls):
        """A level whose composite key passes 2**62 sorts with
        ``lexsort`` and keeps the same runs as the one-key sort."""
        np = _numpy()
        rng = np.random.default_rng(7)
        owners = np.repeat(np.arange(6, dtype=np.int64), 8)
        los = rng.integers(0, 20, size=len(owners))
        his = los + rng.integers(0, 20, size=len(owners))
        small = _sweep(np, los, his, owners)
        assert calls["lexsort"] == 0
        shift = 2**30    # owner * lo * hi spans now pass 2**62
        wide = _sweep(np, los + shift, his + shift, owners)
        assert calls["lexsort"] == 1
        assert np.array_equal(wide[0], small[0] + shift)
        assert np.array_equal(wide[1], small[1] + shift)
        assert np.array_equal(wide[2], small[2])
        for owner in range(6):
            pairs = {(lo, hi) for lo, hi, who
                     in zip(los.tolist(), his.tolist(), owners.tolist())
                     if who == owner}
            maximal = sorted(pair for pair in pairs if not any(
                other != pair and other[0] <= pair[0] and other[1] >= pair[1]
                for other in pairs))
            kept = [(lo, hi) for lo, hi, who in zip(*(a.tolist() for a in small))
                    if who == owner]
            assert kept == maximal


class TestRenumberAfterVectorizedBuild:
    """Gap exhaustion after a kernel build: inserts at gap 2 run out of
    numbers and force a renumbering pass, after which the index must
    still match the oracle, a reference-built twin fed the same ops, and
    the reference freeze."""

    def test_gap_exhaustion_then_renumbering(self):
        rng = random.Random(2027)
        graph = random_dag(50, 2.0, rng)
        # Each index adopts the graph it is built from: give each a copy.
        built = IntervalTCIndex.build(graph.copy(), gap=2)
        reference = build_reference_index(graph.copy(), gap=2)
        oracle = SetClosureOracle(arcs=graph.arcs(), nodes=graph.nodes())
        parents_pool = sorted(graph.nodes())
        step = 0
        # Keep inserting a few nodes past the first renumbering, so the
        # renumbered numbering takes inserts too.
        while built.renumber_count == 0 or step % 8:
            assert step < 400, "gap 2 never ran out"
            node = f"new{step}"
            parents = rng.sample(parents_pool, 2)
            for index in (built, reference):
                index.add_node(node, parents=parents)
            for parent in parents:
                oracle.add_arc(parent, node)
            step += 1
        assert reference.renumber_count == built.renumber_count
        assert interval_table(built) == interval_table(reference)
        compare_engine("vectorized", built, oracle, predecessors=True)
        frozen = built.freeze()
        compare_engine("frozen", frozen, oracle, predecessors=True)
        assert rtcf_bytes(frozen) == reference_bytes(built)
        assert rtcf_bytes(frozen) == rtcf_bytes(reference.freeze())


class TestRecomputeParity:
    """The Section 4.2 recompute behind every deletion and renumbering
    runs the kernel: after each such op in a seeded update stream, every
    node's set must equal the sequential pass over the index's current
    tree intervals."""

    CONFIGS = {
        "global": dict(gap=8),
        "global-gap1": dict(gap=1),
        "gap-2": dict(gap=2),
        "fractional": dict(gap=2, numbering="fractional"),
        "merged": dict(gap=8, merge=True),
        "gap-2**62": dict(gap=2**62),
    }

    @staticmethod
    def sequential_table(index):
        """:func:`propagate_intervals` over the current graph and tree
        intervals, merged afterwards on a merged index; for a merged
        index also the removed recompute's merge-during-the-pass form,
        which must agree over integer numbers."""
        order = topological_order(index.graph)
        labeling = Labeling(
            postorder=index.postorder, tree_interval=index.tree_interval,
            intervals={node: IntervalSet([index.tree_interval[node]])
                       for node in order})
        propagate_intervals(index.graph, SimpleNamespace(order=order),
                            labeling)
        if index.merged:
            merge_all(labeling)
            during = {}
            for node in reversed(order):
                fresh = IntervalSet([index.tree_interval[node]])
                for successor in index.graph.successors(node):
                    fresh.add_all(during[successor])
                during[node] = fresh.merged()
            assert {node: sorted(value) for node, value in during.items()} \
                == {node: sorted(labeling.intervals[node]) for node in order}
        return {node: sorted(labeling.intervals[node]) for node in order}

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_recompute_matches_sequential_pass(self, config, seed):
        rng = random.Random(seed)
        index = IntervalTCIndex.build(random_dag(30, 2.0, rng),
                                      **self.CONFIGS[config])
        recomputes = 0
        for step in range(60):
            nodes = sorted(index.nodes(), key=repr)
            roll = rng.random()
            if roll < 0.45:
                index.add_node(("n", step),
                               rng.sample(nodes, min(len(nodes), 2)))
                continue
            if roll < 0.6:
                source, destination = rng.sample(nodes, 2)
                if not index.reachable(destination, source):
                    index.add_arc(source, destination)
                continue
            if roll < 0.85 and index.graph.num_arcs:
                index.remove_arc(*rng.choice(sorted(index.graph.arcs(),
                                                    key=repr)))
            elif roll < 0.95:
                index.remove_node(rng.choice(nodes))
            else:
                index.renumber()
            recomputes += 1
            assert interval_table(index) == self.sequential_table(index), \
                (config, seed, step)
        assert recomputes > 10
        index.check_invariants()
        index.verify()


class TestDispatch:
    """``run_propagation`` and ``open_index(propagation=...)`` survive
    only for the benchmark harness: ``"vectorized"`` is the one name."""

    def test_unknown_mode_rejected(self):
        graph = DiGraph(arcs=[("a", "b")])
        with pytest.raises(ReproError, match="propagation"):
            open_index(graph, engine="frozen", propagation="simd")

    def test_parallel_mode_is_gone(self):
        """The process-pool mode never beat the vectorized kernel on a
        measured box and was removed; asking for it is an unknown mode."""
        graph = DiGraph(arcs=[("a", "b")])
        with pytest.raises(ReproError, match="unknown propagation mode"):
            open_index(graph, propagation="parallel")

    def test_python_mode_is_rejected(self):
        """The sequential pass is the test reference, not a build mode;
        the error names it."""
        from repro.core.labeling import assign_postorder
        from repro.core.tree_cover import build_tree_cover
        graph = DiGraph(arcs=[("a", "b")])
        cover = build_tree_cover(graph)
        with pytest.raises(ReproError,
                           match="repro.core.labeling.propagate_intervals"):
            run_propagation(graph, cover, assign_postorder(cover), "python")

    def test_run_propagation_signature(self):
        """The harness calls ``run_propagation(graph, cover, labeling,
        "vectorized")``; it runs the kernel."""
        from repro.core.labeling import assign_postorder
        from repro.core.tree_cover import build_tree_cover
        graph = DiGraph(arcs=[("a", "b"), ("a", "c"), ("b", "c")])
        cover = build_tree_cover(graph)
        labeling = assign_postorder(cover, gap=8)
        run_propagation(graph, cover, labeling, "vectorized")
        assert labeling.intervals["a"].covers(labeling.postorder["c"])
