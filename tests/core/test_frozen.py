"""The frozen flat-array engine: parity, staleness, batches, persistence."""

from __future__ import annotations

import json
import random
from bisect import bisect_left, bisect_right

import pytest

from repro.core import frozen as frozen_module
from repro.core import queries
from repro.core.batch import apply_diff
from repro.core.frozen import FrozenTCIndex
from repro.core.index import DEFAULT_GAP, IntervalTCIndex
from repro.core.rtcf import load_rtcf, rtcf_bytes, save_rtcf
from repro.core.updates import remove_node
from repro.core.serialize import (
    frozen_to_dict,
    index_to_dict,
    index_from_dict,
    save_frozen_index,
    save_index,
)
from repro.factory import open_index
from repro.errors import (CycleError, GraphError, IndexStateError,
                          NodeNotFoundError, ReproError)
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_dag
from repro.graph.io import load_edge_list, loads_edge_list
from repro.testing.oracle import build_reference_index

@pytest.fixture
def paper_index(paper_dag) -> IntervalTCIndex:
    return IntervalTCIndex.build(paper_dag)


# ----------------------------------------------------------------------
# parity with the mutable engine
# ----------------------------------------------------------------------
def test_matches_mutable_on_fixture(paper_index):
    frozen = paper_index.freeze()
    for u in paper_index.nodes():
        assert frozen.successors(u) == paper_index.successors(u)
        assert frozen.successors(u, reflexive=False) == \
            paper_index.successors(u, reflexive=False)
        assert frozen.predecessors(u) == paper_index.predecessors(u)
        assert frozen.count_successors(u) == paper_index.count_successors(u)
        assert list(frozen.iter_successors(u)) == \
            sorted(frozen.successors(u),
                   key=lambda node: frozen._id(node))
        for v in paper_index.nodes():
            assert frozen.reachable(u, v) == paper_index.reachable(u, v)


def test_matches_mutable_on_random_dags():
    for seed in range(4):
        graph = random_dag(80, 2.0, seed)
        index = IntervalTCIndex.build(graph, gap=(1 if seed % 2 else 32))
        frozen = index.freeze()
        for node in graph.nodes():
            assert frozen.successors(node) == index.successors(node)
            assert frozen.predecessors(node) == index.predecessors(node)


def test_fractional_numbering_freezes():
    index = IntervalTCIndex.build(DiGraph([("a", "b"), ("b", "c")]),
                                  numbering="fractional", gap=4)
    index.add_node("d", parents=["a"])
    frozen = index.freeze()
    for node in index.nodes():
        assert frozen.successors(node) == index.successors(node)


def test_membership_and_interning(paper_index):
    frozen = paper_index.freeze()
    assert len(frozen) == len(paper_index)
    assert "a" in frozen and "nope" not in frozen
    assert set(frozen.nodes()) == set(paper_index.nodes())
    with pytest.raises(NodeNotFoundError):
        frozen.reachable("a", "nope")
    with pytest.raises(NodeNotFoundError):
        frozen.successors("nope")
    with pytest.raises(NodeNotFoundError):
        frozen.predecessors("nope")


def test_empty_index():
    frozen = IntervalTCIndex.build(DiGraph()).freeze()
    assert len(frozen) == 0
    assert frozen.reachable_many([]) == []
    assert frozen.reachable_from_set([]) == set()
    assert not frozen.any_reachable([], [])


# ----------------------------------------------------------------------
# batch and set-semijoin APIs
# ----------------------------------------------------------------------
def test_reachable_many(paper_index):
    frozen = paper_index.freeze()
    nodes = list(paper_index.nodes())
    pairs = [(u, v) for u in nodes for v in nodes]
    assert frozen.reachable_many(pairs) == \
        [paper_index.reachable(u, v) for u, v in pairs]
    assert frozen.reachable_many(iter(pairs[:5])) == \
        [paper_index.reachable(u, v) for u, v in pairs[:5]]


def test_reachable_many_unknown_node(paper_index):
    frozen = paper_index.freeze()
    with pytest.raises(NodeNotFoundError):
        frozen.reachable_many([("a", "b"), ("a", "nope")])


def test_reachable_many_integer_labels():
    """Integer labels exercise the numpy LUT translation path."""
    graph = random_dag(120, 2.0, 11)
    index = IntervalTCIndex.build(graph)
    frozen = index.freeze()
    nodes = list(graph.nodes())
    pairs = [(u, v) for u in nodes[:25] for v in nodes[:25]]
    assert frozen.reachable_many(pairs) == \
        [index.reachable(u, v) for u, v in pairs]
    with pytest.raises(NodeNotFoundError):
        frozen.reachable_many([(nodes[0], 10 ** 9)])


def test_successors_predecessors_many(paper_index):
    frozen = paper_index.freeze()
    nodes = list(paper_index.nodes())
    assert frozen.successors_many(nodes) == \
        [paper_index.successors(node) for node in nodes]
    assert frozen.predecessors_many(nodes, reflexive=False) == \
        [paper_index.predecessors(node, reflexive=False) for node in nodes]


def test_set_semijoins(paper_index):
    frozen = paper_index.freeze()
    assert frozen.reachable_from_set(["b", "c"]) == \
        paper_index.successors("b") | paper_index.successors("c")
    assert frozen.reaching_set(["h"]) == paper_index.predecessors("h")
    assert frozen.reaching_set(["d", "g"]) == \
        paper_index.predecessors("d") | paper_index.predecessors("g")
    assert frozen.any_reachable(["b"], ["h"])
    assert not frozen.any_reachable(["g"], ["d", "e", "h"])
    assert not frozen.any_reachable(["a"], [])


def test_are_disjoint(paper_index):
    frozen = paper_index.freeze()
    for u in paper_index.nodes():
        for v in paper_index.nodes():
            expected = not (paper_index.successors(u)
                            & paper_index.successors(v))
            assert frozen.are_disjoint(u, v) == expected, (u, v)


# ----------------------------------------------------------------------
# staleness protocol
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mutate", [
    pytest.param(lambda ix: ix.add_arc("g", "h"), id="add_arc"),
    pytest.param(lambda ix: ix.add_node("z", parents=["a"]), id="add_node"),
    pytest.param(lambda ix: ix.remove_arc("c", "e"), id="remove_arc"),
    pytest.param(lambda ix: ix.remove_node("d"), id="remove_node"),
    pytest.param(lambda ix: ix.renumber(gap=8), id="renumber"),
    pytest.param(lambda ix: apply_diff(ix, "+ g h\n- b d\n"), id="apply_diff"),
])
def test_updates_invalidate_frozen_view(paper_index, mutate):
    frozen = paper_index.freeze()
    assert not frozen.is_stale()
    assert paper_index.frozen_view() is frozen
    mutate(paper_index)
    assert frozen.is_stale()
    assert paper_index.frozen_view() is None
    with pytest.raises(IndexStateError):
        frozen.reachable("a", "b")
    with pytest.raises(IndexStateError):
        frozen.reachable_many([("a", "b")])
    with pytest.raises(IndexStateError):
        frozen.predecessors("b")


def test_refreeze_after_update(paper_index):
    frozen = paper_index.freeze()
    paper_index.add_node("z", parents=["h"])
    fresh = paper_index.freeze()
    assert fresh is not frozen
    assert fresh.reachable("a", "z")
    for node in paper_index.nodes():
        assert fresh.successors(node) == paper_index.successors(node)


def test_freeze_caches_while_fresh(paper_index):
    first = paper_index.freeze()
    assert paper_index.freeze() is first
    forced = paper_index.freeze(force=True)
    assert forced is not first
    assert paper_index.freeze() is forced


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------
def test_frozen_round_trip(paper_index, tmp_path):
    frozen = paper_index.freeze()
    path = tmp_path / "frozen.json"
    save_frozen_index(frozen, path)
    loaded = open_index(path, engine="frozen")
    for u in paper_index.nodes():
        assert loaded.successors(u) == paper_index.successors(u)
        assert loaded.predecessors(u) == paper_index.predecessors(u)
    # A loaded view is detached from any source index: never stale.
    paper_index.add_arc("g", "h")
    assert not loaded.is_stale()
    assert loaded.reachable("a", "h")


def test_load_any_dispatches(paper_index, tmp_path):
    mutable_path = tmp_path / "index.json"
    frozen_path = tmp_path / "frozen.json"
    save_index(paper_index, mutable_path)
    save_frozen_index(paper_index.freeze(), frozen_path)
    assert isinstance(open_index(mutable_path), IntervalTCIndex)
    assert isinstance(open_index(frozen_path), FrozenTCIndex)


def test_wrong_loader_raises(paper_index):
    frozen_doc = frozen_to_dict(paper_index.freeze())
    with pytest.raises(ReproError):
        index_from_dict(frozen_doc)
    mutable_doc = index_to_dict(paper_index)
    from repro.core.serialize import frozen_from_dict
    with pytest.raises(ReproError):
        frozen_from_dict(mutable_doc)


def test_fractional_round_trip(tmp_path):
    index = IntervalTCIndex.build(DiGraph([("a", "b"), ("b", "c")]),
                                  numbering="fractional", gap=4)
    index.add_node("d", parents=["a"])
    path = tmp_path / "frozen.json"
    save_frozen_index(index.freeze(), path)
    loaded = open_index(path, engine="frozen")
    for node in index.nodes():
        assert loaded.successors(node) == index.successors(node)


def test_document_holds_no_numbers_and_old_ones_still_load(tmp_path):
    """Older releases stored a ``numbers`` field; readers ignore it."""
    index = IntervalTCIndex.build(DiGraph([("a", "b"), ("b", "c")]), gap=4)
    document = frozen_to_dict(index.freeze())
    assert "numbers" not in document
    document["numbers"] = list(index.used_numbers)
    path = tmp_path / "old.json"
    path.write_text(json.dumps(document))
    loaded = open_index(path)
    for node in index.nodes():
        assert loaded.successors(node) == index.successors(node)
        assert loaded.predecessors(node) == index.predecessors(node)


def test_inconsistent_buffers_rejected():
    with pytest.raises(ReproError):
        FrozenTCIndex.from_buffers(nodes=["a", "b"],
                                   offsets=[0, 1], lows=[0], highs=[0])
    with pytest.raises(ReproError):
        FrozenTCIndex.from_buffers(nodes=["a"],
                                   offsets=[0, 2], lows=[0], highs=[0, 0, 0])


def test_numpy_buffers_accepted():
    """Buffers handed over as numpy arrays (as a loader might) must not
    trip a truth-value test on the offsets array."""
    import numpy
    frozen = FrozenTCIndex.from_buffers(
        nodes=["a", "b", "c"],
        offsets=numpy.array([0, 1, 2, 3]), lows=numpy.array([0, 0, 0]),
        highs=numpy.array([0, 1, 2]))
    assert frozen.successors("c") == {"a", "b", "c"}
    assert frozen.predecessors("a") == {"a", "b", "c"}
    buffers = frozen.to_buffers()
    assert buffers["highs"] == [0, 1, 2]
    assert all(type(value) is int
               for key in ("offsets", "lows", "highs")
               for value in buffers[key])
    with pytest.raises(ReproError):
        FrozenTCIndex.from_buffers(
            nodes=["a"], offsets=numpy.array([0, 2]),
            lows=numpy.array([0]), highs=numpy.array([0]))


# ----------------------------------------------------------------------
# the vectorised freeze kernel against the per-interval reference loop
# ----------------------------------------------------------------------
def reference_view(index: IntervalTCIndex) -> FrozenTCIndex:
    """What the per-interval reference loop compiles ``index`` to."""
    used = index.used_numbers
    nodes = [index.node_of_number[number] for number in used]
    offsets, lows, highs = frozen_module._rank_runs_python(
        used, [index.intervals[node] for node in nodes])
    return FrozenTCIndex.from_buffers(
        nodes=nodes, offsets=offsets, lows=lows, highs=highs,
        epoch=index.epoch)


def gap_only_intervals(index: IntervalTCIndex) -> int:
    """Stored intervals that contain no live postorder number."""
    used = index.used_numbers
    return sum(1 for interval_set in index.intervals.values()
               for lo, hi in interval_set
               if bisect_left(used, lo) > bisect_right(used, hi) - 1)


def assert_kernel_matches_reference(index: IntervalTCIndex) -> None:
    kernel = index.freeze(force=True)
    reference = reference_view(index)
    assert kernel.to_buffers() == reference.to_buffers()
    assert rtcf_bytes(kernel) == rtcf_bytes(reference)
    for node in list(index.nodes())[::3]:
        assert kernel.successors(node) == index.successors(node)


class TestFreezeKernel:
    def test_integer_numbering_takes_the_kernel(self, paper_index,
                                                monkeypatch):
        def refuse(*args):
            raise AssertionError("reference loop used on integer numbering")
        expected = reference_view(paper_index).to_buffers()
        monkeypatch.setattr(frozen_module, "_rank_runs_python", refuse)
        assert paper_index.freeze(force=True).to_buffers() == expected

    @pytest.mark.parametrize("seed", [3, 17, 40])
    @pytest.mark.parametrize("gap", [
        pytest.param(4, id="dense-numbers"),
        # numbers far sparser than the intervals: binary-search ranks
        pytest.param(2**40, id="sparse-numbers")])
    def test_after_arc_churn(self, seed, gap):
        rng = random.Random(seed)
        graph = random_dag(90, 2.0, rng)
        index = IntervalTCIndex.build(graph, gap=gap, merge=seed % 2 == 1)
        nodes = sorted(graph.nodes())
        for _ in range(60):
            source, destination = rng.sample(nodes, 2)
            if index.graph.has_arc(source, destination):
                index.remove_arc(source, destination)
            elif not index.reachable(destination, source):
                index.add_arc(source, destination)
        assert_kernel_matches_reference(index)

    def test_after_renumbering_with_gap_only_intervals(self):
        rng = random.Random(5)
        graph = random_dag(60, 2.0, rng)
        index = IntervalTCIndex.build(graph, gap=2)
        nodes = sorted(graph.nodes())
        for step in range(40):  # exhaust the gaps: forces renumbering
            index.add_node(("new", step), parents=rng.sample(nodes, 2))
        assert index.renumber_count > 0
        # Batch removals defer the interval refresh; until it runs,
        # ancestors keep intervals over the removed leaves' numbers.
        for step in range(0, 40, 3):
            remove_node(index, ("new", step), recompute=False)
        assert gap_only_intervals(index) > 0
        assert_kernel_matches_reference(index)

    def test_empty_index(self):
        assert_kernel_matches_reference(IntervalTCIndex.build(DiGraph()))

    def test_fractional_numbering_takes_the_reference(self, monkeypatch):
        index = IntervalTCIndex.build(
            DiGraph([("a", "b"), ("b", "c"), ("a", "c")]),
            numbering="fractional", gap=4)
        for step in range(6):  # force Fractions into the numbering
            index.add_node(("f", step), parents=["b"])
        expected = reference_view(index).to_buffers()

        def refuse(*args):
            raise AssertionError("kernel used on fractional numbers")
        monkeypatch.setattr(frozen_module, "_rank_runs_numpy", refuse)
        assert index.freeze(force=True).to_buffers() == expected

    def test_numbers_beyond_int64_take_the_reference(self):
        index = IntervalTCIndex.build(DiGraph([("a", "b"), ("b", "c")]),
                                      gap=2**62)
        assert index.used_numbers[-1] >= 2**63
        assert (index.freeze(force=True).to_buffers()
                == reference_view(index).to_buffers())


# ----------------------------------------------------------------------
# the direct route: graph -> frozen engine, propagated in rank space
# ----------------------------------------------------------------------
def staged_bytes(graph: DiGraph, **options) -> bytes:
    """RTCF bytes of the staged route: mutable build, then freeze."""
    return rtcf_bytes(IntervalTCIndex.build(graph, **options).freeze())


def direct_build(graph, monkeypatch, **options) -> FrozenTCIndex:
    """``open_index`` by the direct route; fails if a mutable index is
    built on the way."""
    def refuse(*args, **kwargs):
        raise AssertionError("the direct route built a mutable index")
    with monkeypatch.context() as patch:
        patch.setattr(IntervalTCIndex, "build", refuse)
        return open_index(graph, engine="frozen", **options)


def direct_graphs():
    rng = random.Random(1414)
    dense = random_dag(150, 2.5, rng)
    yield "dense-int", dense
    yield "string", DiGraph(arcs=[(f"n{s}", f"n{d}")
                                  for s, d in dense.arcs()])
    yield "sparse", random_dag(120, 1.2, rng)
    yield "paper", DiGraph(arcs=[("a", "b"), ("b", "c"), ("b", "d"),
                                 ("a", "e"), ("e", "d"), ("c", "f")])
    yield "empty", DiGraph()
    yield "single", DiGraph(nodes=["only"])
    yield "isolated", DiGraph(arcs=[(1, 2), (2, 3)], nodes=[7, 0, 9])
    # One node per level: every level takes the scalar merge.
    yield "deep-chain", DiGraph(arcs=[(i, i + 1) for i in range(300)])
    yield "repeats-isolated", loads_edge_list(REPEATS_TEXT)


#: An edge list that repeats arcs and declares isolated nodes before and
#: after their arcs, and one that is never mentioned in an arc.
REPEATS_TEXT = """\
lone
c d
a b
b c
a b
d
a c
c d
b c
e
lone
"""


class TestDirectBuild:
    @pytest.mark.parametrize("gap", [1, DEFAULT_GAP, 1024, 2**57, 2**62])
    @pytest.mark.parametrize("policy", ["alg1", "first_parent"])
    def test_bytes_equal_the_staged_route(self, monkeypatch, gap, policy):
        """A snapshot stores ranks only, so the direct build (which takes
        no gap) equals the staged route at every gap, including gaps
        that number nodes past int64."""
        for name, graph in direct_graphs():
            frozen = direct_build(graph, monkeypatch, gap=gap, policy=policy)
            assert rtcf_bytes(frozen) == staged_bytes(
                graph, gap=gap, policy=policy), name

    @pytest.mark.parametrize("options", [
        pytest.param({"merge_ordering": True}, id="merge-ordering"),
        # merge only joins touching intervals; freeze coalesces them anyway
        pytest.param({"merge": True}, id="merge"),
        pytest.param({"merge": True, "merge_ordering": True, "gap": 4},
                     id="merge-both"),
        pytest.param({"policy": "random", "rng": 5}, id="random-policy")])
    def test_options_keep_their_meaning(self, monkeypatch, options):
        for name, graph in direct_graphs():
            frozen = direct_build(graph, monkeypatch, **options)
            assert rtcf_bytes(frozen) == staged_bytes(graph, **options), name

    def test_holds_no_mutable_index(self, monkeypatch):
        graph = random_dag(60, 2.0, random.Random(3))
        frozen = direct_build(graph, monkeypatch)
        assert frozen._source is None
        assert frozen.epoch == 0 and not frozen.is_stale()
        index = IntervalTCIndex.build(graph)
        for node in list(graph.nodes())[::7]:
            assert frozen.successors(node) == index.successors(node)

    def test_edge_list_source(self, monkeypatch, tmp_path):
        graph = random_dag(80, 2.0, random.Random(8))
        path = tmp_path / "graph.edges"
        path.write_text("".join(f"n{s} n{d}\n" for s, d in graph.arcs()))
        frozen = direct_build(str(path), monkeypatch, policy="first_parent")
        assert rtcf_bytes(frozen) == staged_bytes(load_edge_list(str(path)),
                                                  policy="first_parent")

    @pytest.mark.parametrize("policy", ["alg1", "first_parent", "random"])
    def test_edge_list_source_builds_no_digraph(self, monkeypatch, tmp_path,
                                                policy):
        """The edge-list route runs on integer ids from the parser on."""
        graph = random_dag(80, 2.0, random.Random(9))
        path = tmp_path / "graph.edges"
        path.write_text(REPEATS_TEXT + "".join(
            f"n{s} n{d}\n" for s, d in graph.arcs()))
        expected = staged_bytes(load_edge_list(str(path)), policy=policy,
                                rng=3)

        def refuse(*args):
            raise AssertionError("the edge-list route built a DiGraph")
        with monkeypatch.context() as patch:
            patch.setattr(DiGraph, "add_arc", refuse)
            frozen = direct_build(str(path), monkeypatch, policy=policy,
                                  rng=3)
        assert rtcf_bytes(frozen) == expected

    def test_edge_list_source_merge_ordering(self, monkeypatch, tmp_path):
        path = tmp_path / "graph.edges"
        path.write_text(REPEATS_TEXT)
        frozen = direct_build(str(path), monkeypatch, merge_ordering=True)
        assert rtcf_bytes(frozen) == staged_bytes(
            load_edge_list(str(path)), merge_ordering=True)

    @pytest.mark.parametrize("text, error", [
        pytest.param("a b\nb c\nx y z\nc d\n", "line 3", id="3-tokens"),
        pytest.param("a b\nb b\nx y z\n", "self-loop", id="self-loop"),
        pytest.param("a b\n\nx y z\nc c\n", "line 3",
                     id="3-tokens-first")])
    def test_edge_list_errors_match_load_edge_list(self, tmp_path, text,
                                                   error):
        path = tmp_path / "bad.edges"
        path.write_text(text)
        with pytest.raises(GraphError, match=error) as expected:
            load_edge_list(str(path))
        with pytest.raises(GraphError) as direct:
            open_index(str(path), engine="frozen")
        assert str(direct.value) == str(expected.value)

    def test_edge_list_cycle_matches_the_staged_route(self, monkeypatch,
                                                      tmp_path):
        path = tmp_path / "cyclic.edges"
        path.write_text("s a\na b\nb c\nc d\nd b\nc a\n")
        with pytest.raises(CycleError) as staged:
            IntervalTCIndex.build(load_edge_list(str(path)))
        with pytest.raises(CycleError) as direct:
            direct_build(str(path), monkeypatch)
        assert direct.value.cycle == staged.value.cycle
        assert str(direct.value) == str(staged.value)

    def test_comments_blanks_and_crlf_change_nothing(self, monkeypatch,
                                                     tmp_path):
        graph = random_dag(60, 2.0, random.Random(12))
        lines = [f"n{s} n{d}" for s, d in graph.arcs()]
        clean = tmp_path / "clean.edges"
        clean.write_text("\n".join(lines) + "\n")
        noisy = tmp_path / "noisy.edges"
        noisy.write_bytes("\r\n".join(
            ["# a comment", ""] + [f"  {line}\t# note" for line in lines]
            + ["", "   "]).encode())
        expected = staged_bytes(load_edge_list(str(clean)))
        assert staged_bytes(load_edge_list(str(noisy))) == expected
        for path in (clean, noisy):
            assert rtcf_bytes(direct_build(str(path), monkeypatch)) \
                == expected

    @pytest.mark.parametrize("option", [
        pytest.param({"numbering": "fractional"}, id="numbering"),
        pytest.param({"auto_renumber": False}, id="auto-renumber")])
    def test_update_only_options_raise(self, option):
        """These options configure inserts, which a snapshot never
        takes."""
        graph = random_dag(20, 2.0, random.Random(4))
        with pytest.raises(ReproError, match=next(iter(option))):
            open_index(graph, engine="frozen", gap=4, **option)

    def test_python_propagation_is_rejected(self):
        graph = random_dag(20, 2.0, random.Random(6))
        with pytest.raises(ReproError, match="propagate_intervals"):
            open_index(graph, engine="frozen", propagation="python")

    def test_errors_match_the_staged_route(self, monkeypatch):
        with pytest.raises(CycleError):
            direct_build(DiGraph(arcs=[("a", "b"), ("b", "a")]), monkeypatch)
        with pytest.raises(GraphError, match="gap"):
            direct_build(DiGraph(arcs=[("a", "b")]), monkeypatch, gap=0)
        with pytest.raises(GraphError, match="policy"):
            direct_build(DiGraph(arcs=[("a", "b")]), monkeypatch,
                         policy="nope")

    @pytest.mark.parametrize("num_nodes", [
        pytest.param(46_340, id="int32-side"),
        pytest.param(46_341, id="int64-side")])
    def test_rank_dtype_switch(self, monkeypatch, num_nodes):
        import numpy
        arcs = [((child - 1) // 2, child) for child in range(1, num_nodes)]
        arcs += [(node, node + 3) for node in range(0, num_nodes - 3, 997)]
        graph = DiGraph(arcs=arcs)
        frozen = direct_build(graph, monkeypatch, policy="first_parent")
        fits = frozen_module._rank_keys_fit_int32(num_nodes)
        assert fits == (num_nodes == 46_340)
        assert frozen._dtype == (numpy.int32 if fits else numpy.int64)
        blob = rtcf_bytes(frozen)
        assert blob == staged_bytes(graph, policy="first_parent")
        assert blob == rtcf_bytes(build_reference_index(
            graph, gap=DEFAULT_GAP, policy="first_parent").freeze())


class TestLabelTable:
    """``_build_lut`` builds the int-label table up to label 65,536."""

    @pytest.mark.parametrize("top, has_table", [
        pytest.param(65_536, True, id="at-limit"),
        pytest.param(65_537, False, id="past-limit")])
    def test_both_sides_of_the_limit(self, tmp_path, top, has_table):
        graph = DiGraph(arcs=[(0, 5), (5, top), (3, top), (3, 9)])
        index = IntervalTCIndex.build(graph)
        frozen = open_index(graph, engine="frozen")
        assert (frozen._lut is not None) == has_table
        pairs = [(s, d) for s in graph.nodes() for d in graph.nodes()]
        expected = [index.reachable(s, d) for s, d in pairs]
        assert frozen.reachable_many(pairs) == expected
        path = str(tmp_path / "labels.rtcf")
        save_rtcf(frozen, path)
        mapped = load_rtcf(path, verify=True)
        assert (mapped._lut is not None) == has_table
        assert mapped.reachable_many(pairs) == expected
        assert rtcf_bytes(mapped) == rtcf_bytes(frozen) == rtcf_bytes(
            index.freeze())


class TestReverseStabAllocation:
    """One ``predecessors`` call allocates O(window + answer), not
    O(intervals): the stab's rank must match the int32 reverse arrays'
    dtype, or ``searchsorted`` casts each whole array to int64."""

    @pytest.fixture(scope="class")
    def snapshot(self):
        frozen = open_index(random_dag(5000, 3.0, 1989), engine="frozen",
                            policy="first_parent")
        assert frozen.num_intervals >= 200_000
        assert frozen._rev_lo.dtype.itemsize == 4
        return frozen

    @staticmethod
    def assert_small_peak(engine, destinations) -> None:
        import tracemalloc
        engine.predecessors(destinations[0])  # lazy label tables
        budget = engine.num_intervals  # 1 B per interval, 8x below a cast
        tracemalloc.start()
        try:
            for destination in destinations:
                tracemalloc.reset_peak()
                engine.predecessors(destination)
                _, peak = tracemalloc.get_traced_memory()
                assert peak < budget, (destination, peak, budget)
        finally:
            tracemalloc.stop()

    def test_in_memory_frozen(self, snapshot):
        self.assert_small_peak(snapshot, list(snapshot.nodes())[::500])

    def test_mapped_rtcf(self, snapshot, tmp_path):
        path = str(tmp_path / "stab.rtcf")
        save_rtcf(snapshot, path)
        mapped = load_rtcf(path)
        try:
            assert mapped._rev_lo.dtype.itemsize == 4
            self.assert_small_peak(mapped, list(mapped.nodes())[::500])
        finally:
            mapped.close()


class TestReverseIndexSort:
    """``_materialize`` builds the reverse index with one sort of the
    keys ``lo * m + position``; past int64 it takes a stable argsort by
    ``lo``.  That needs ``n * m > 2**63``, far past any index that fits
    in memory, so the tests force it by patching the guard."""

    REVERSE = ("_rev_lo", "_rev_hi", "_rev_owner", "_rev_maxhi")

    @staticmethod
    def shared_subtree():
        """Thirty roots over one shared subtree: many rows hold a run
        that starts at the same rank."""
        return DiGraph(arcs=[("hub", ("leaf", k)) for k in range(5)]
                       + [(("root", i), "hub") for i in range(30)])

    @staticmethod
    def both_ways(monkeypatch, build):
        """``build()`` by the key sort, then with the argsort forced."""
        key_sorted = build()
        with monkeypatch.context() as patch:
            patch.setattr(frozen_module, "_rev_keys_fit_int64",
                          lambda num_nodes, num_runs: False)
            argsorted = build()
        return key_sorted, argsorted

    def assert_same_reverse_index(self, key_sorted, argsorted, name):
        import numpy
        for attribute in self.REVERSE:
            mine = getattr(key_sorted, attribute)
            theirs = getattr(argsorted, attribute)
            assert mine.dtype == theirs.dtype, (name, attribute)
            assert numpy.array_equal(mine, theirs), (name, attribute)
        assert rtcf_bytes(key_sorted) == rtcf_bytes(argsorted), name

    def test_argsort_fallback_gives_identical_arrays(self, monkeypatch):
        graphs = [*direct_graphs(), ("shared-subtree", self.shared_subtree())]
        for name, graph in graphs:
            key_sorted, argsorted = self.both_ways(
                monkeypatch, lambda: open_index(graph, engine="frozen"))
            self.assert_same_reverse_index(key_sorted, argsorted, name)

    def test_ties_across_rows_keep_row_order(self, monkeypatch):
        frozen, argsorted = self.both_ways(
            monkeypatch, lambda: open_index(self.shared_subtree(),
                                            engine="frozen"))
        self.assert_same_reverse_index(frozen, argsorted, "shared-subtree")
        lows = frozen._lo.tolist()
        assert len(lows) - len(set(lows)) >= 30
        offsets = frozen._off.tolist()
        row_of = [row for row in range(len(offsets) - 1)
                  for _ in range(offsets[row + 1] - offsets[row])]
        order = sorted(range(len(lows)), key=lows.__getitem__)  # stable
        assert frozen._rev_lo.tolist() == [lows[i] for i in order]
        assert frozen._rev_owner.tolist() == [row_of[i] for i in order]

    def test_empty_index(self, monkeypatch):
        import warnings

        def build():
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no division by zero
                return FrozenTCIndex.from_buffers(nodes=[], offsets=[0],
                                                  lows=[], highs=[])
        key_sorted, argsorted = self.both_ways(monkeypatch, build)
        self.assert_same_reverse_index(key_sorted, argsorted, "empty")
        assert all(len(getattr(key_sorted, attribute)) == 0
                   for attribute in self.REVERSE)

    def test_guard_sits_at_int64(self):
        fits = frozen_module._rev_keys_fit_int64
        assert fits(0, 0) and fits(2**32, 2**31)
        assert not fits(2**32, 2**31 + 1)


# ----------------------------------------------------------------------
# routing through repro.core.queries
# ----------------------------------------------------------------------
def test_queries_route_through_frozen_view(paper_index):
    nodes = list(paper_index.nodes())
    pairs = [(u, v) for u in nodes[:4] for v in nodes[:4]]
    before = {
        "ancestors": queries.ancestors(paper_index, "h"),
        "common": queries.common_ancestors(paper_index, ["d", "h"]),
        "lca": queries.least_common_ancestors(paper_index, ["d", "g"]),
        "gcd": queries.greatest_common_descendants(paper_index, ["b", "c"]),
    }
    frozen = paper_index.freeze()
    assert queries._engine(paper_index) is frozen
    assert queries.ancestors(paper_index, "h") == before["ancestors"]
    assert queries.common_ancestors(paper_index, ["d", "h"]) == \
        before["common"]
    assert queries.least_common_ancestors(paper_index, ["d", "g"]) == \
        before["lca"]
    assert queries.greatest_common_descendants(paper_index, ["b", "c"]) == \
        before["gcd"]
    # The batch and semijoin methods answer alike on the index and its view.
    assert frozen.reachable_many(pairs) == paper_index.reachable_many(pairs)
    assert frozen.reaching_set(["h"]) == paper_index.reaching_set(["h"])
    assert frozen.reachable_from_set(["b", "c"]) == \
        paper_index.reachable_from_set(["b", "c"])
    assert frozen.any_reachable(["a"], ["h"]) == \
        paper_index.any_reachable(["a"], ["h"])
    assert frozen.are_disjoint("d", "g") == paper_index.are_disjoint("d", "g")


def test_queries_accept_frozen_directly(paper_index):
    frozen = paper_index.freeze()
    assert queries.descendants(frozen, "a") == \
        queries.descendants(paper_index, "a")
    assert queries.ancestors(frozen, "h") == \
        queries.ancestors(paper_index, "h")
    assert queries.common_ancestors(frozen, ["d", "e"]) == \
        queries.common_ancestors(paper_index, ["d", "e"])
    assert queries.least_common_ancestors(frozen, ["e", "f"]) == \
        queries.least_common_ancestors(paper_index, ["e", "f"])


def test_stats_and_nbytes(paper_index):
    frozen = paper_index.freeze()
    report = frozen.stats()
    assert report["num_nodes"] == len(paper_index)
    assert report["nbytes"] == frozen.nbytes > 0
    assert report["stale"] is False
    assert frozen.num_intervals <= paper_index.num_intervals
