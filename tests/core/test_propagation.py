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
from repro.core.frozen import _coalesce_runs, _numpy
from repro.core.labeling import postorder_ranks
from repro.core.propagation import (_levelize, _merge_scalar,
                                    _propagate_pool, _sweep, run_propagation)
from repro.core.tree_cover import tree_parents
from repro.core.rtcf import rtcf_bytes
from repro.errors import ReproError
from repro.factory import open_index
from repro.graph.digraph import DiGraph
from repro.graph.generators import path_graph, random_dag, random_dag_local
from repro.graph.io import EdgeList
from repro.graph.traversal import (graph_csr, out_csr, topological_arcs,
                                   topological_order)
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


def rank_inputs(graph, policy):
    """The direct build's kernel inputs: the out-CSR on topological ids
    and every id's tree interval ``[entry, rank]`` in rank space."""
    np = _numpy()
    edges = EdgeList.from_graph(graph)
    _, src, dst = topological_arcs(np, edges, graph)
    rank, entry = postorder_ranks(
        tree_parents(np, edges.num_nodes, src, dst, policy))
    indptr, indices = out_csr(np, edges.num_nodes, src, dst)
    return (indptr, indices, np.array(entry, dtype=np.int64),
            np.array(rank, dtype=np.int64))


def kernel_rows(inputs, coalesce):
    """Every id's ``(lo, hi)`` runs out of the level loop."""
    pool_lo, pool_hi, start, end = _propagate_pool(_numpy(), *inputs,
                                                   coalesce=coalesce)
    return [list(zip(pool_lo[begin:stop].tolist(),
                     pool_hi[begin:stop].tolist()))
            for begin, stop in zip(start.tolist(), end.tolist())]


def coalesced(rows):
    """:func:`_coalesce_runs` over ``rows``, one row per id."""
    np = _numpy()
    n = len(rows)
    runs = [run for row in rows for run in row]
    offsets, lows, highs = _coalesce_runs(
        np, np.array([lo for lo, _ in runs], dtype=np.int64),
        np.array([hi for _, hi in runs], dtype=np.int64),
        np.repeat(np.arange(n, dtype=np.int64), [len(row) for row in rows]),
        n)
    offsets = offsets.tolist()
    return [list(zip(lows[offsets[i]:offsets[i + 1]].tolist(),
                     highs[offsets[i]:offsets[i + 1]].tolist()))
            for i in range(n)]


#: Under ``last_parent``, ``r``'s row gathers its tree interval and one
#: run from each of ``p`` and ``q``, and the three touch end to end.
TOUCH_ARCS = [("r", "p"), ("r", "q"), ("p", "p1"), ("q", "q1"),
              ("s", "p1"), ("s", "q1"), ("t", "s")]


def ladder(length):
    """Two chains joined by rungs: two nodes per level, so every level
    gathers a handful of runs."""
    return DiGraph(arcs=[(("a", i), ("a", i + 1)) for i in range(length)]
                   + [(("b", i), ("b", i + 1)) for i in range(length)]
                   + [(("a", i), ("b", i)) for i in range(length)])


def layered(width, layers, seed):
    """``layers`` levels of ``width`` nodes, each node with arcs to two
    nodes of the next layer: every level gathers more than
    :data:`SCALAR_RUNS` runs."""
    rng = random.Random(seed)
    arcs = [((layer, node), (layer + 1, target))
            for layer in range(layers - 1) for node in range(width)
            for target in rng.sample(range(width), 2)]
    return DiGraph(arcs=arcs)


def kernel_graphs():
    yield "touching", DiGraph(arcs=TOUCH_ARCS)
    yield "ladder", ladder(150)
    yield "layered", layered(80, 3, 4)
    yield "mixed-levels", mixed_levels()
    yield "empty", DiGraph()
    for seed in (1, 7):
        yield f"dag-{seed}", random_dag(120, 2.5, random.Random(seed))
    yield "local", random_dag_local(90, 3.0, random.Random(11), window=12)
    yield "dense", random_dag(45, 6.0, random.Random(12))


class TestRankModeKernel:
    """In rank space the kernel coalesces as it goes: each node's runs
    must be :func:`_coalesce_runs` over its subsumption-maximal runs,
    whichever of the scalar merge and the sweep resolved it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import repro.core.propagation as propagation_module
        counts = {"sweep": 0, "merge_scalar": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(propagation_module, "_sweep",
                            counted("sweep", _sweep))
        monkeypatch.setattr(propagation_module, "_merge_scalar",
                            counted("merge_scalar", _merge_scalar))
        return counts

    def test_touching_runs_from_different_successors(self):
        graph = DiGraph(arcs=TOUCH_ARCS)
        edges = EdgeList.from_graph(graph)
        order = topological_arcs(_numpy(), edges, graph)[0]
        root = [edges.labels[node] for node in order].index("r")
        inputs = rank_inputs(graph, "last_parent")
        kept = kernel_rows(inputs, coalesce=False)[root]
        assert len(kept) == 3
        assert all(following[0] == previous[1] + 1
                   for previous, following in zip(kept, kept[1:]))
        assert kernel_rows(inputs, coalesce=True)[root] == [
            (kept[0][0], kept[-1][1])]

    @pytest.mark.parametrize("scalar_runs", [
        pytest.param(None, id="default"),
        pytest.param(0, id="sweep-only"),
        pytest.param(10**9, id="scalar-only")])
    @pytest.mark.parametrize("policy", ["alg1", "last_parent"])
    def test_equals_coalescing_the_subsumption_kernel(
            self, calls, monkeypatch, scalar_runs, policy):
        import repro.core.propagation as propagation_module
        if scalar_runs is not None:
            monkeypatch.setattr(propagation_module, "SCALAR_RUNS",
                                scalar_runs)
        for name, graph in kernel_graphs():
            inputs = rank_inputs(graph, policy)
            expected = coalesced(kernel_rows(inputs, coalesce=False))
            calls.update(sweep=0, merge_scalar=0)
            assert kernel_rows(inputs, coalesce=True) == expected, name
            if scalar_runs == 0:
                assert calls["merge_scalar"] == 0, name
            elif scalar_runs is not None:
                assert calls == {"sweep": 0, "merge_scalar": len(graph)}, \
                    name

    def test_deep_chain_takes_only_the_scalar_merge(self, calls):
        graph = ladder(150)
        inputs = rank_inputs(graph, "alg1")
        expected = coalesced(kernel_rows(inputs, coalesce=False))
        calls.update(sweep=0, merge_scalar=0)
        rows = kernel_rows(inputs, coalesce=True)
        assert calls == {"sweep": 0, "merge_scalar": len(graph)}
        assert rows == expected
        assert max(map(len, rows)) > 1

    def test_wide_levels_take_only_the_sweep(self, calls):
        graph = layered(80, 3, 4)
        inputs = rank_inputs(graph, "alg1")
        expected = coalesced(kernel_rows(inputs, coalesce=False))
        calls.update(sweep=0, merge_scalar=0)
        rows = kernel_rows(inputs, coalesce=True)
        # Level 0 holds only sinks, which keep their tree intervals.
        assert calls == {"sweep": 2, "merge_scalar": 0}
        assert rows == expected
        assert max(map(len, rows)) > 1

    #: (owner, lo, hi) runs and what coalescing keeps per owner: touching
    #: runs join, a one-rank gap does not, and owners never join.
    RUNS = [(0, 0, 2), (0, 3, 5), (0, 7, 8), (0, 8, 8), (0, 4, 4),
            (1, 9, 9), (1, 0, 3), (1, 1, 2), (1, 5, 6),
            (2, 4, 4), (3, 5, 5)]
    COALESCED = {0: [(0, 5), (7, 8)], 1: [(0, 3), (5, 6), (9, 9)],
                 2: [(4, 4)], 3: [(5, 5)]}

    def test_scalar_merge_coalesces_touching_runs(self):
        for owner, expected in self.COALESCED.items():
            pairs = [(lo, -hi) for who, lo, hi in self.RUNS if who == owner]
            assert _merge_scalar(pairs, coalesce=True) == expected

    def test_sweep_coalesces_touching_runs(self):
        np = _numpy()
        owners, los, his = (np.array(column, dtype=np.int64)
                            for column in zip(*self.RUNS))
        expected = [(who, lo, hi) for who, runs in self.COALESCED.items()
                    for lo, hi in runs]
        kept_lo, kept_hi, kept_owner = _sweep(np, los, his, owners,
                                              coalesce=True)
        assert list(zip(kept_owner.tolist(), kept_lo.tolist(),
                        kept_hi.tolist())) == expected
        shift = 2**30  # past the one-key sort: the lexsort branch
        kept_lo, kept_hi, kept_owner = _sweep(np, los + shift, his + shift,
                                              owners, coalesce=True)
        assert list(zip(kept_owner.tolist(), (kept_lo - shift).tolist(),
                        (kept_hi - shift).tolist())) == expected


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
