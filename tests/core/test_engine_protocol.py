"""TCEngine conformance: every engine shares one query surface.

Parametrized over the mutable, frozen, hybrid, durable, RTCF and
chain-cover engines: method presence (``isinstance`` against the runtime-checkable protocol),
exact signature equality via :func:`inspect.signature`, shared reflexive
semantics, empty-graph edge cases, batch-equals-singles, and the
observability contract (counters increment, histograms record, a
disabled registry stays empty).
"""

import inspect
import json

import pytest

from repro.core.engine import TCEngine
from repro.core.frozen import FrozenTCIndex
from repro.core.hybrid import HybridTCIndex
from repro.core.index import IntervalTCIndex
from repro.durability.store import DurableTCIndex
from repro.errors import NodeNotFoundError
from repro.graph.digraph import DiGraph
from repro.obs import MetricsRegistry, QueryTracer, attach

ENGINE_NAMES = ("interval", "frozen", "hybrid", "durable", "rtcf", "chain")

#: The query surface whose signatures must match byte-for-byte.
QUERY_METHODS = (
    "reachable",
    "successors",
    "predecessors",
    "iter_successors",
    "count_successors",
    "reachable_many",
    "successors_many",
    "predecessors_many",
    "reachable_from_set",
    "reaching_set",
    "any_reachable",
    "are_disjoint",
    "nodes",
    "__contains__",
    "__len__",
)


def paper_graph() -> DiGraph:
    graph = DiGraph()
    for source, destination in [("a", "b"), ("b", "c"), ("b", "d"),
                                ("a", "e"), ("e", "d"), ("c", "f")]:
        graph.add_arc(source, destination)
    return graph


def make_engine(name, graph, tmp_path, *, metrics=None, tracer=None):
    if name == "interval":
        index = IntervalTCIndex.build(graph)
        return attach(index, metrics=metrics, tracer=tracer)
    if name == "frozen":
        frozen = IntervalTCIndex.build(graph).freeze().detach()
        return attach(frozen, metrics=metrics, tracer=tracer)
    if name == "hybrid":
        hybrid = HybridTCIndex.build(graph)
        return attach(hybrid, metrics=metrics, tracer=tracer)
    if name == "durable":
        from repro.graph.traversal import topological_order
        store = DurableTCIndex.open(tmp_path / "store", metrics=metrics,
                                    tracer=tracer)
        for node in topological_order(graph):
            store.add_node(node, sorted(graph.predecessors(node), key=repr))
        return store
    if name == "rtcf":
        from repro.core.rtcf import load_rtcf, save_rtcf
        path = str(tmp_path / "engine.rtcf")
        save_rtcf(IntervalTCIndex.build(graph).freeze(), path)
        return attach(load_rtcf(path, verify=True), metrics=metrics,
                      tracer=tracer)
    if name == "chain":
        from repro.core.chain_cover import ChainCoverIndex
        return attach(ChainCoverIndex.build(graph), metrics=metrics,
                      tracer=tracer)
    raise AssertionError(name)


@pytest.fixture(params=ENGINE_NAMES)
def engine_name(request):
    return request.param


@pytest.fixture
def engine(engine_name, tmp_path):
    built = make_engine(engine_name, paper_graph(), tmp_path)
    yield built
    if hasattr(built, "close"):
        built.close()


class TestProtocol:
    def test_isinstance(self, engine):
        assert isinstance(engine, TCEngine)

    @pytest.mark.parametrize("method", QUERY_METHODS)
    def test_signatures_match_the_mutable_index(self, engine, method):
        reference = inspect.signature(getattr(IntervalTCIndex, method))
        actual = inspect.signature(getattr(type(engine), method))
        assert actual == reference, (
            f"{type(engine).__name__}.{method} signature drifted: "
            f"{actual} != {reference}")

    def test_stats_takes_no_arguments(self, engine):
        parameters = inspect.signature(type(engine).stats).parameters
        assert list(parameters) == ["self"]

    def test_capabilities_contract(self, engine):
        from repro.core.engine import EngineCapabilities
        caps = engine.capabilities()
        assert isinstance(caps, EngineCapabilities)
        assert caps.kind
        # A compiled snapshot cannot also accept updates.
        assert not (caps.is_frozen_snapshot and caps.supports_updates)


def test_registry_covers_every_engine_name():
    """`open_index` names, the builder registry, and this suite agree.

    Registering an engine in ``GRAPH_ENGINE_BUILDERS`` is what enlists
    it here; a name in ``ENGINES`` without a builder (or vice versa) is
    a wiring bug.
    """
    from repro.factory import ENGINES, GRAPH_ENGINE_BUILDERS
    buildable = set(ENGINES) - {"auto", "dict"}
    assert set(GRAPH_ENGINE_BUILDERS) == buildable
    # The conformance battery exercises every buildable engine: the
    # ENGINE_NAMES here add serving wrappers (durable, rtcf) on top.
    assert buildable <= set(ENGINE_NAMES) | {"interval"}


class TestSemantics:
    def test_reflexive_by_default(self, engine):
        assert engine.reachable("a", "a")
        assert "a" in engine.successors("a")
        assert "a" not in engine.successors("a", reflexive=False)
        assert "d" not in engine.predecessors("d", reflexive=False)

    def test_point_queries(self, engine):
        assert engine.reachable("a", "f")
        assert not engine.reachable("f", "a")
        assert engine.successors("b", reflexive=False) == {"c", "d", "f"}
        assert engine.predecessors("d", reflexive=False) == {"a", "b", "e"}
        assert engine.count_successors("a") == len(engine.successors("a"))
        assert engine.count_successors("a", reflexive=False) == len(
            engine.successors("a", reflexive=False))
        assert (sorted(engine.iter_successors("b"), key=str)
                == sorted(engine.successors("b"), key=str))

    def test_batch_equals_singles(self, engine, engine_name, tmp_path):
        nodes = sorted(engine.nodes(), key=str)
        pairs = [(s, d) for s in nodes for d in nodes]
        assert engine.reachable_many(pairs) == [
            engine.reachable(s, d) for s, d in pairs]
        assert engine.successors_many(nodes) == [
            engine.successors(n) for n in nodes]
        assert engine.predecessors_many(nodes, reflexive=False) == [
            engine.predecessors(n, reflexive=False) for n in nodes]

        # Labels that numpy would read as ints (1.5 -> 1, "1" -> 1) must
        # not alias node 1 of an int-labelled graph, nor may an int past
        # int64 overflow: a batch holding one raises, exactly as the
        # single call does.
        ints = tmp_path / "ints"
        ints.mkdir()
        int_engine = make_engine(engine_name, DiGraph(
            arcs=[(0, 1), (1, 2), (1, 3), (0, 4), (4, 3), (2, 5)]), ints)
        try:
            int_pairs = [(s, d) for s in range(6) for d in range(6)]
            assert int_engine.reachable_many(int_pairs) == [
                int_engine.reachable(s, d) for s, d in int_pairs]
            foreign_pairs = [(1.5, 2), ("1", 3), (0, 2.5), (4, "3"),
                             (2**64, 1)]
            for foreign in foreign_pairs:
                with pytest.raises(NodeNotFoundError):
                    int_engine.reachable(*foreign)
                with pytest.raises(NodeNotFoundError):
                    int_engine.reachable_many([(0, 1), foreign])
        finally:
            if hasattr(int_engine, "close"):
                int_engine.close()

    def test_answers_are_python_bools(self, engine):
        """Not ``numpy.bool``: the answers must survive ``json.dumps``."""
        nodes = sorted(engine.nodes(), key=str)
        pairs = [(s, d) for s in nodes for d in nodes]
        singles = [engine.reachable(s, d) for s, d in pairs]
        assert {type(answer) for answer in singles} == {bool}
        assert {type(answer) for answer in engine.reachable_many(pairs)} \
            == {bool}
        assert json.dumps(engine.reachable("a", "c")) == "true"

    def test_set_semijoins(self, engine):
        assert engine.reachable_from_set(["b", "e"]) == (
            engine.successors("b") | engine.successors("e"))
        assert engine.reaching_set(["f"]) == engine.predecessors("f")
        assert engine.any_reachable(["e"], ["f", "d"])
        assert not engine.any_reachable(["f"], ["a", "b"])
        assert engine.are_disjoint("f", "d")
        assert not engine.are_disjoint("b", "e")  # share d

    def test_membership(self, engine):
        assert "a" in engine and "ghost" not in engine
        assert len(engine) == 6
        assert set(engine.nodes()) == {"a", "b", "c", "d", "e", "f"}

    def test_stats_reports(self, engine):
        stats = engine.stats()
        payload = stats.as_dict() if hasattr(stats, "as_dict") else stats
        assert isinstance(payload, dict) and payload


@pytest.mark.parametrize("name", ENGINE_NAMES)
class TestEmptyGraph:
    def test_empty_engine(self, name, tmp_path):
        engine = make_engine(name, DiGraph(), tmp_path)
        try:
            assert len(engine) == 0
            assert list(engine.nodes()) == []
            assert "ghost" not in engine
            assert engine.reachable_many([]) == []
            assert engine.reachable_from_set([]) == set()
            assert engine.reaching_set([]) == set()
            assert not engine.any_reachable([], [])
        finally:
            if hasattr(engine, "close"):
                engine.close()


@pytest.mark.parametrize("name", ENGINE_NAMES)
class TestObservability:
    def test_metrics_record(self, name, tmp_path):
        registry = MetricsRegistry()
        engine = make_engine(name, paper_graph(), tmp_path,
                             metrics=registry)
        try:
            engine.reachable("a", "f")
            engine.successors("a")
            engine.reachable_many([("a", "f"), ("f", "a")])
        finally:
            if hasattr(engine, "close"):
                engine.close()
        snapshot = registry.snapshot()
        label = type(engine).__name__
        counter = f'tc_op_total{{engine="{label}",op="reachable"}}'
        assert snapshot["counters"][counter] >= 1
        histogram = (f'tc_op_latency_seconds{{engine="{label}",'
                     f'op="reachable"}}')
        digest = snapshot["histograms"][histogram]
        assert digest["count"] >= 1 and digest["sum"] > 0

    def test_disabled_registry_records_nothing(self, name, tmp_path):
        registry = MetricsRegistry(enabled=False)
        engine = make_engine(name, paper_graph(), tmp_path,
                             metrics=registry)
        try:
            engine.reachable("a", "f")
        finally:
            if hasattr(engine, "close"):
                engine.close()
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}}
        # the truly-zero-overhead path: no instruments were attached
        inner = engine.engine if hasattr(engine, "engine") else engine
        assert inner._obs is None

    def test_tracer_records_spans(self, name, tmp_path):
        tracer = QueryTracer()
        engine = make_engine(name, paper_graph(), tmp_path, tracer=tracer)
        try:
            engine.reachable("a", "f")
        finally:
            if hasattr(engine, "close"):
                engine.close()
        assert len(tracer) >= 1
        root = tracer.traces(last=1)[0]
        assert root.name == "reachable"
        assert root.annotations["engine"] == type(engine).__name__


def test_health_gauges_present():
    registry = MetricsRegistry()
    index = attach(IntervalTCIndex.build(paper_graph()), metrics=registry)
    gauges = registry.snapshot()["gauges"]
    for name in ("tc_nodes", "tc_intervals_total", "tc_intervals_per_node",
                 "tc_gap_budget_remaining", "tc_renumber_total"):
        key = f'{name}{{engine="IntervalTCIndex"}}'
        assert key in gauges, key
    assert gauges['tc_nodes{engine="IntervalTCIndex"}'] == len(index)
    assert gauges['tc_gap_budget_remaining{engine="IntervalTCIndex"}'] >= 0


def test_gauges_survive_engine_collection():
    registry = MetricsRegistry()
    attach(IntervalTCIndex.build(paper_graph()), metrics=registry)
    import gc
    gc.collect()
    gauges = registry.snapshot()["gauges"]
    assert gauges['tc_nodes{engine="IntervalTCIndex"}'] == 0.0


@pytest.mark.parametrize("name", ENGINE_NAMES)
class TestEmptyBatchOnPopulatedGraph:
    """reachable_many([]) must be [] on a *populated* engine too.

    The empty-graph case above cannot catch an engine whose batch path
    trips over its own fast-path setup (numpy array staging, snapshot
    pinning) when the graph is non-trivial but the batch is empty.
    """

    def test_empty_batches(self, name, tmp_path):
        engine = make_engine(name, paper_graph(), tmp_path)
        try:
            assert engine.reachable_many([]) == []
            assert engine.successors_many([]) == []
            assert engine.predecessors_many([]) == []
            assert engine.reachable_many(iter([])) == []
        finally:
            if hasattr(engine, "close"):
                engine.close()


#: The durable store builds incrementally (one journalled add_node per
#: node), which is far too slow at 5k nodes for tier-1; the other
#: engines all build from a graph in one pass.
SCALE_ENGINE_NAMES = ("interval", "frozen", "hybrid", "rtcf", "chain")


@pytest.mark.parametrize("name", SCALE_ENGINE_NAMES)
class TestBatchEqualsSinglesAtScale:
    """A seeded 5k-node DAG: the vectorised batch path vs one-at-a-time.

    The paper-graph parity check above runs 36 pairs — far too few to
    exercise the numpy staging, chunking, and rank-slice paths that only
    engage on wide batches.  Seeded, so a failure replays exactly.
    """

    def test_seeded_5k_node_batch_parity(self, name, tmp_path):
        import random

        from repro.graph.generators import random_dag

        graph = random_dag(5000, 1.5, 1989)
        engine = make_engine(name, graph, tmp_path)
        try:
            rng = random.Random(7)
            nodes = sorted(graph.nodes(), key=repr)
            pairs = [(rng.choice(nodes), rng.choice(nodes))
                     for _ in range(2000)]
            batched = engine.reachable_many(pairs)
            assert len(batched) == len(pairs)
            assert [bool(answer) for answer in batched] == [
                engine.reachable(source, destination)
                for source, destination in pairs]
            assert any(batched), "sample drew no reachable pair"
            assert not all(batched), "sample drew only reachable pairs"
        finally:
            if hasattr(engine, "close"):
                engine.close()
