"""The snapshot engines' point, set and batch paths over string labels.

``FrozenTCIndex`` (and its mmap'd RTCF subclass) answer ``successors``,
``reachable_from_set`` and ``any_reachable`` from one gather of the
rows' runs, and intern a ``reachable_many`` batch of labels that are not
small ints in one pass over the label dict.  The fuzzer draws int
labels, so these tests pin the string-label path; ``ChainCoverIndex``'s
inline ``reachable_many`` is checked alongside.  The scalar path is
pinned too: unknown labels (string, and int labels around the lookup
table), the freshness guard of strict views, and a batch searched in
key order but answered in input order.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import frozen as frozen_module
from repro.core.chain_cover import ChainCoverIndex
from repro.core.engine import EngineBase
from repro.core.frozen import FrozenTCIndex
from repro.core.index import IntervalTCIndex
from repro.core.rtcf import load_rtcf, save_rtcf
from repro.errors import IndexStateError, NodeNotFoundError
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_dag
from repro.testing.oracle import SetClosureOracle, compare_engine


def string_graph(num_nodes: int = 400, seed: int = 5) -> DiGraph:
    """A random DAG relabelled to strings, so no label table applies."""
    graph = random_dag(num_nodes, 3.0, seed)
    label = {node: f"n{node}" for node in graph.nodes()}
    return DiGraph(arcs=[(label[u], label[v]) for u, v in graph.arcs()],
                   nodes=list(label.values()))


@pytest.fixture(scope="module")
def graph() -> DiGraph:
    return string_graph()


@pytest.fixture(scope="module")
def oracle(graph) -> SetClosureOracle:
    return SetClosureOracle(graph.arcs(), graph.nodes())


@pytest.fixture(params=["frozen", "rtcf"])
def snapshot(request, graph, tmp_path):
    frozen = IntervalTCIndex.build(graph, policy="first_parent").freeze()
    if request.param == "frozen":
        return frozen
    path = str(tmp_path / "engine.rtcf")
    save_rtcf(frozen, path)
    mapped = load_rtcf(path)
    assert mapped._lut is None  # string labels: the dict path
    return mapped


def groups(nodes, seed: int, count: int = 40):
    rng = random.Random(seed)
    drawn = [[], [nodes[0], nodes[0]]]
    for _ in range(count):
        drawn.append(rng.sample(nodes, rng.randint(1, 40)))
    return drawn


class TestOracleParity:
    def test_compare_engine(self, snapshot, oracle):
        assert compare_engine("snapshot", snapshot, oracle,
                              predecessors=True) > 0

    def test_successors(self, snapshot, oracle):
        for node in oracle.nodes():
            expected = set(oracle.successors(node))
            assert snapshot.successors(node) == expected
            assert snapshot.successors(node, reflexive=False) == \
                expected - {node}

    def test_semijoins_take_both_decode_branches(self, snapshot, oracle):
        """Across the drawn groups both ``_decode`` branches run: many
        narrow runs expand in numpy, few or wide runs walk slices."""
        branches = set()
        for group in groups(oracle.nodes(), seed=7):
            expected = set().union(*map(oracle.successors, group))
            assert snapshot.reachable_from_set(group) == expected
            if group:
                lows, highs = snapshot._gather(
                    [snapshot._id(node) for node in group])
                runs = len(lows)
                width = int((highs - lows + 1).sum())
                branches.add(
                    runs >= frozen_module._EXPAND_MIN_RUNS
                    and width <= frozen_module._EXPAND_MAX_WIDTH * runs)
        assert branches == {True, False}

    def test_any_reachable(self, snapshot, oracle):
        nodes = oracle.nodes()
        rng = random.Random(11)
        loop = EngineBase.any_reachable.__wrapped__
        answers = set()
        for _ in range(200):
            sources = rng.sample(nodes, rng.randint(1, 8))
            targets = rng.sample(nodes, rng.randint(1, 8))
            expected = any(oracle.reachable(source, target)
                           for source in sources for target in targets)
            assert snapshot.any_reachable(sources, targets) == expected
            assert loop(snapshot, sources, targets) == expected
            answers.add(expected)
        assert answers == {True, False}
        assert not snapshot.any_reachable([], nodes[:3])
        assert not snapshot.any_reachable(nodes[:3], [])

    def test_any_reachable_hits_run_ends(self, snapshot, oracle):
        """A target at a run's first or last rank is a hit; one just
        outside the row's runs is not."""
        nodes = snapshot._nodes
        for node in oracle.nodes()[:60]:
            for lo, hi in snapshot._runs(node):
                assert snapshot.any_reachable([node], [nodes[lo]])
                assert snapshot.any_reachable([node], [nodes[hi]])
                for outside in (lo - 1, hi + 1):
                    if 0 <= outside < len(nodes):
                        assert snapshot.any_reachable(
                            [node], [nodes[outside]]) == \
                            oracle.reachable(node, nodes[outside])

    def test_reachable_many_in_descending_key_order(self, snapshot, oracle):
        """The batch is searched in ascending key order; the answers must
        still come back in input order, repeated pairs included."""
        nodes = oracle.nodes()
        rng = random.Random(23)
        pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(300)]
        pairs += [(node, node) for node in nodes[:20]]
        pairs += [pairs[index] for index in range(0, 300, 7)]  # repeats
        pairs.sort(key=lambda pair: (snapshot._id(pair[0]),
                                     snapshot._id(pair[1])), reverse=True)
        expected = [oracle.reachable(u, v) for u, v in pairs]
        assert set(expected) == {True, False}
        assert snapshot.reachable_many(pairs) == expected
        assert snapshot.reachable_many(pairs) == \
            [snapshot.reachable(u, v) for u, v in pairs]
        assert compare_engine("snapshot", snapshot, oracle) > 0

    def test_reachable_many_all_pairs(self, snapshot, oracle):
        nodes = oracle.nodes()[:120]
        pairs = [(u, v) for u in nodes for v in nodes]
        assert snapshot.reachable_many(pairs) == \
            [oracle.reachable(u, v) for u, v in pairs]
        assert snapshot.reachable_many(iter(pairs[:9])) == \
            [oracle.reachable(u, v) for u, v in pairs[:9]]
        assert snapshot.reachable_many([]) == []


class TestUnknownLabels:
    @pytest.mark.parametrize("position", range(6))
    def test_reachable_many_names_the_unknown_label(self, snapshot, oracle,
                                                    position):
        nodes = oracle.nodes()
        flat = [nodes[0], nodes[1], nodes[2], nodes[3], nodes[4], nodes[5]]
        flat[position] = "missing-label"
        pairs = list(zip(flat[0::2], flat[1::2]))
        with pytest.raises(NodeNotFoundError) as caught:
            snapshot.reachable_many(pairs)
        assert caught.value.node == "missing-label"
        assert "missing-label" in str(caught.value)

    def test_reachable_names_the_unknown_label(self, snapshot, oracle):
        known = oracle.nodes()[0]
        for pair in (("missing-label", known), (known, "missing-label")):
            with pytest.raises(NodeNotFoundError) as caught:
                snapshot.reachable(*pair)
            assert caught.value.node == "missing-label"
            assert "missing-label" in str(caught.value)

    def test_set_paths_name_the_unknown_label(self, snapshot, oracle):
        nodes = oracle.nodes()
        for call in (lambda: snapshot.successors("missing-label"),
                     lambda: snapshot.reachable_from_set(
                         [nodes[0], "missing-label"]),
                     lambda: snapshot.any_reachable(
                         [nodes[0], "missing-label"], [nodes[1]]),
                     lambda: snapshot.any_reachable(
                         [nodes[0]], ["missing-label"])):
            with pytest.raises(NodeNotFoundError) as caught:
                call()
            assert caught.value.node == "missing-label"


def gapped_int_graph() -> DiGraph:
    """A random DAG on the labels 3k + 1, so the lookup table holds
    unused slots between the labels."""
    graph = random_dag(200, 3.0, 9)
    return DiGraph(arcs=[(3 * u + 1, 3 * v + 1) for u, v in graph.arcs()],
                   nodes=[3 * node + 1 for node in graph.nodes()])


class TestUnknownIntLabels:
    """Int labels read the lookup table on a mapped view and the label
    dict in memory; both raise for a label the graph does not hold."""

    @pytest.fixture(params=["frozen", "rtcf"])
    def int_snapshot(self, request, tmp_path):
        frozen = IntervalTCIndex.build(gapped_int_graph()).freeze()
        if request.param == "frozen":
            return frozen
        path = str(tmp_path / "ints.rtcf")
        save_rtcf(frozen, path)
        mapped = load_rtcf(path)
        assert mapped._lut is not None
        return mapped

    # Labels run 1, 4, ..., 598, so the table has 599 slots.  Negative
    # labels -1 and -598 would wrap around to the slots of 598 and 1.
    @pytest.mark.parametrize("label", [0, 2, 3, 597,  # unused, in range
                                       599, 600, 10**6, 2**64,  # past end
                                       -1, -2, -598])  # negative
    def test_reachable_raises_for_the_label(self, int_snapshot, label):
        assert label not in int_snapshot
        for pair in ((label, 1), (1, label)):
            with pytest.raises(NodeNotFoundError) as caught:
                int_snapshot.reachable(*pair)
            assert caught.value.node == label
        with pytest.raises(NodeNotFoundError):
            int_snapshot.reachable_many([(1, 4), (label, 1)])

    def test_known_labels_answer(self, int_snapshot):
        graph = gapped_int_graph()
        oracle = SetClosureOracle(graph.arcs(), graph.nodes())
        pairs = [(u, v) for u in oracle.nodes()[:40] for v in oracle.nodes()]
        expected = [oracle.reachable(u, v) for u, v in pairs]
        assert [int_snapshot.reachable(u, v) for u, v in pairs] == expected
        assert int_snapshot.reachable_many(pairs) == expected


class TestStaleView:
    """Only a strict ``freeze()`` view can go stale: detached and mapped
    views have no source and keep answering."""

    def test_point_and_batch_checks(self, tmp_path):
        graph = string_graph(120, seed=6)  # the index mutates its graph
        index = IntervalTCIndex.build(graph)
        strict = index.freeze()
        detached = FrozenTCIndex.from_index(index).detach()
        path = str(tmp_path / "pinned.rtcf")
        save_rtcf(strict, path)
        mapped = load_rtcf(path)
        nodes = list(graph.nodes())
        pairs = [(u, v) for u in nodes[:20] for v in nodes[:20]]
        before = strict.reachable_many(pairs)
        assert [strict.reachable(u, v) for u, v in pairs] == before
        index.add_node("fresh", parents=[nodes[0]])
        with pytest.raises(IndexStateError):
            strict.reachable(nodes[0], nodes[1])
        with pytest.raises(IndexStateError):
            strict.reachable_many(pairs)
        for view in (detached, mapped):
            assert not view.is_stale()
            assert view.reachable_many(pairs) == before
            assert [view.reachable(u, v) for u, v in pairs] == before

    def test_set_paths_refuse_a_stale_view(self, graph):
        index = IntervalTCIndex.build(graph)
        frozen = index.freeze()
        nodes = list(graph.nodes())
        index.add_node("fresh", parents=[nodes[0]])
        for call in (lambda: frozen.successors(nodes[0]),
                     lambda: frozen.reachable_from_set(nodes[:3]),
                     lambda: frozen.reachable_from_set([]),
                     lambda: frozen.any_reachable(nodes[:2], nodes[2:4]),
                     lambda: frozen.reachable_many([(nodes[0], nodes[1])])):
            with pytest.raises(IndexStateError):
                call()


def test_reachable_many_over_empty_rows():
    """Buffers whose rows are all empty cover nothing, yet a batch still
    interns every label first."""
    empty = FrozenTCIndex.from_buffers(nodes=["a", "b"], offsets=[0, 0, 0],
                                       lows=[], highs=[])
    assert empty.reachable_many([("a", "b"), ("b", "b")]) == [False, False]
    assert empty.reachable("b", "b") is False
    with pytest.raises(NodeNotFoundError) as caught:
        empty.reachable_many([("a", "b"), ("a", "missing-label")])
    assert caught.value.node == "missing-label"


class TestDecode:
    """``_decode`` on hand-made runs: repeated and overlapping runs, as
    a multi-row gather produces, on both branches."""

    @pytest.mark.parametrize("count,width", [(3, 1), (60, 1), (60, 2),
                                             (60, 9), (500, 1)])
    def test_matches_a_plain_walk(self, snapshot, count, width):
        rng = random.Random(count * 31 + width)
        lows = np.array([rng.randrange(0, 390) for _ in range(count)],
                        dtype=snapshot._dtype)
        highs = lows + np.array([rng.randrange(0, width)
                                 for _ in range(count)],
                                dtype=snapshot._dtype)
        lows[-1], highs[-1] = lows[0], highs[0]  # one repeated run
        expected = {snapshot._nodes[rank]
                    for low, high in zip(lows.tolist(), highs.tolist())
                    for rank in range(low, high + 1)}
        assert snapshot._decode(lows, highs) == expected


class TestChainBatch:
    @pytest.fixture(scope="class")
    def chain(self, graph):
        return ChainCoverIndex.build(graph)

    def test_all_pairs_match_the_oracle(self, chain, oracle):
        nodes = oracle.nodes()[:150]
        pairs = [(u, v) for u in nodes for v in nodes]
        assert chain.reachable_many(pairs) == \
            [oracle.reachable(u, v) for u, v in pairs]
        assert chain.reachable_many(iter(pairs[:9])) == \
            [oracle.reachable(u, v) for u, v in pairs[:9]]
        assert chain.reachable_many([]) == []

    @pytest.mark.parametrize("position", range(4))
    def test_unknown_label_at_any_position(self, chain, oracle, position):
        flat = oracle.nodes()[:4]
        flat[position] = "missing-label"
        with pytest.raises(NodeNotFoundError) as caught:
            chain.reachable_many(list(zip(flat[0::2], flat[1::2])))
        assert caught.value.node == "missing-label"

    def test_capabilities_unchanged(self, chain):
        assert not chain.capabilities().supports_batch
