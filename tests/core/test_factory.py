"""`repro.open_index` dispatch matrix, coercion rules, auto-selection."""

import json
import warnings

import pytest

from repro import open_index
from repro.core.chain_cover import ChainCoverIndex
from repro.core.frozen import FrozenTCIndex
from repro.core.hybrid import HybridTCIndex
from repro.core.index import IntervalTCIndex
from repro.core.serialize import (save_frozen_index, save_hybrid_index,
                                  save_index)
from repro.durability.store import DurableTCIndex
from repro.errors import ReproError
from repro.graph.digraph import DiGraph
from repro.obs import MetricsRegistry


def diamond() -> DiGraph:
    graph = DiGraph()
    for source, destination in [("a", "b"), ("a", "c"), ("b", "d"),
                                ("c", "d")]:
        graph.add_arc(source, destination)
    return graph


class TestFromGraph:
    def test_auto_builds_interval(self):
        engine = open_index(diamond())
        assert isinstance(engine, IntervalTCIndex)
        assert engine.reachable("a", "d")

    def test_frozen(self):
        engine = open_index(diamond(), engine="frozen")
        assert isinstance(engine, FrozenTCIndex)
        assert engine.reachable("a", "d")

    def test_hybrid(self):
        engine = open_index(diamond(), engine="hybrid")
        assert isinstance(engine, HybridTCIndex)
        engine.add_node("e", ["d"])
        assert engine.reachable("a", "e")

    def test_dict_alias(self):
        assert isinstance(open_index(diamond(), engine="dict"),
                          IntervalTCIndex)

    def test_unknown_engine(self):
        with pytest.raises(ReproError, match="unknown engine"):
            open_index(diamond(), engine="quantum")

    def test_build_kwargs_flow_through(self):
        engine = open_index(diamond(), policy="first_parent")
        assert engine.policy == "first_parent"

    def test_hoplabel(self):
        """The 2-hop label engine is retired: its name is unknown."""
        with pytest.raises(ReproError, match="unknown engine 'hoplabel'"):
            open_index(diamond(), engine="hoplabel")

    def test_chain(self):
        engine = open_index(diamond(), engine="chain")
        assert isinstance(engine, ChainCoverIndex)
        assert engine.successors("a") == {"a", "b", "c", "d"}

    def test_chain_method_kwarg_flows_through(self):
        engine = open_index(diamond(), engine="chain", method="optimal")
        assert engine.stats()["method"] == "optimal"


class TestFromDocuments:
    def test_mutable_doc_follows_auto(self, tmp_path):
        path = tmp_path / "idx.json"
        save_index(IntervalTCIndex.build(diamond()), path)
        assert isinstance(open_index(path), IntervalTCIndex)

    def test_mutable_doc_coerces_to_frozen_and_hybrid(self, tmp_path):
        path = tmp_path / "idx.json"
        save_index(IntervalTCIndex.build(diamond()), path)
        assert isinstance(open_index(path, engine="frozen"), FrozenTCIndex)
        assert isinstance(open_index(path, engine="hybrid"), HybridTCIndex)

    def test_frozen_doc_follows_auto(self, tmp_path):
        path = tmp_path / "frozen.json"
        save_frozen_index(IntervalTCIndex.build(diamond()).freeze(), path)
        engine = open_index(path)
        assert isinstance(engine, FrozenTCIndex)
        assert engine.reachable("a", "d")

    def test_frozen_doc_refuses_mutable_engines(self, tmp_path):
        path = tmp_path / "frozen.json"
        save_frozen_index(IntervalTCIndex.build(diamond()).freeze(), path)
        with pytest.raises(ReproError, match="frozen buffers"):
            open_index(path, engine="interval")
        with pytest.raises(ReproError, match="frozen buffers"):
            open_index(path, engine="hybrid")

    def test_hybrid_doc_all_engines(self, tmp_path):
        path = tmp_path / "hybrid.json"
        hybrid = HybridTCIndex.build(diamond())
        hybrid.add_node("e", ["d"])
        save_hybrid_index(hybrid, path)
        assert isinstance(open_index(path), HybridTCIndex)
        assert isinstance(open_index(path, engine="interval"),
                          IntervalTCIndex)
        frozen = open_index(path, engine="frozen")
        assert isinstance(frozen, FrozenTCIndex)
        assert frozen.reachable("a", "e")

    def test_edge_list_path(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("a b\nb c\n")
        engine = open_index(path, engine="frozen")
        assert isinstance(engine, FrozenTCIndex)
        assert engine.reachable("a", "c")

    @pytest.mark.parametrize("filename, document", [
        ("closure.chain.json", {
            "format_version": 1, "kind": "chain-tc-index",
            "method": "greedy", "chains": [["a", "b", "d"], ["c"]],
            "reach": [["a", [[0, 0], [1, 0]]]]}),
        ("closure.hop.json", {
            "format_version": 1, "kind": "hop-label-index",
            "nodes": ["a", "b", "c", "d"],
            "lin": [[0], [0, 1], [0, 2], [0, 3]],
            "lout": [[0], [1, 3], [2, 3], [3]]}),
    ], ids=["chain", "hoplabel"])
    def test_retired_document_names_its_kind(self, tmp_path, filename,
                                             document):
        """The chain-cover and 2-hop label document formats are retired;
        opening one says which kind it is and how to get an engine back."""
        path = tmp_path / filename
        path.write_text(json.dumps(document))
        with pytest.raises(ReproError) as caught:
            open_index(path)
        message = str(caught.value)
        assert repr(document["kind"]) in message
        assert "rebuild the index from its graph" in message
        assert "open it with repro.open_index" not in message

    def test_mutable_doc_coerces_to_label_engines(self, tmp_path):
        path = tmp_path / "idx.json"
        save_index(IntervalTCIndex.build(diamond()), path)
        assert isinstance(open_index(path, engine="chain"),
                          ChainCoverIndex)


class TestFromEngines:
    def test_passthrough(self):
        index = IntervalTCIndex.build(diamond())
        assert open_index(index) is index

    def test_coerce_existing_index_to_hybrid(self):
        hybrid = open_index(IntervalTCIndex.build(diamond()),
                            engine="hybrid")
        assert isinstance(hybrid, HybridTCIndex)

    def test_frozen_instance_refuses_interval(self):
        frozen = IntervalTCIndex.build(diamond()).freeze().detach()
        with pytest.raises(ReproError, match="frozen buffers"):
            open_index(frozen, engine="interval")

    def test_rejects_arbitrary_objects(self):
        with pytest.raises(ReproError, match="cannot open"):
            open_index(42)


class TestDurable:
    def test_create_and_autodetect(self, tmp_path):
        target = tmp_path / "store"
        store = open_index(target, durable=True)
        assert isinstance(store, DurableTCIndex)
        store.add_node("a")
        store.add_node("b", ["a"])
        store.close()
        reopened = open_index(target)  # durable=None auto-detects
        try:
            assert isinstance(reopened, DurableTCIndex)
            assert reopened.reachable("a", "b")
        finally:
            reopened.close()

    def test_durable_false_forbids_store(self, tmp_path):
        target = tmp_path / "store"
        open_index(target, durable=True).close()
        with pytest.raises(Exception):
            open_index(target, durable=False)

    def test_frozen_engine_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="journalled"):
            open_index(tmp_path / "store", durable=True, engine="frozen")

    def test_durable_needs_a_path(self):
        with pytest.raises(ReproError, match="store directory path"):
            open_index(diamond(), durable=True)


class TestObservabilityWiring:
    def test_metrics_attach_through_factory(self):
        registry = MetricsRegistry()
        engine = open_index(diamond(), metrics=registry)
        engine.reachable("a", "d")
        counters = registry.snapshot()["counters"]
        assert counters[
            'tc_op_total{engine="IntervalTCIndex",op="reachable"}'] >= 1

    def test_factory_emits_no_deprecation_warnings(self, tmp_path):
        path = tmp_path / "idx.json"
        save_index(IntervalTCIndex.build(diamond()), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            open_index(path)
            open_index(path, engine="frozen")


class TestShimRemoval:
    """The PR 5 deprecated loaders are gone; ``open_index`` is the door."""

    def test_loaders_no_longer_importable(self):
        import repro.core.serialize as serialize
        for name in ("load_index", "load_frozen_index",
                     "load_hybrid_index", "load_any"):
            assert not hasattr(serialize, name)

    def test_core_namespace_dropped_loaders(self):
        import repro.core as core
        for name in ("load_index", "load_frozen_index", "load_hybrid_index"):
            assert not hasattr(core, name)
            assert name not in core.__all__


class TestCapabilities:
    def test_kinds_cover_the_engine_matrix(self):
        kinds = {
            IntervalTCIndex.build(diamond()).capabilities().kind: None,
            open_index(diamond(), engine="frozen").capabilities().kind: None,
            open_index(diamond(), engine="hybrid").capabilities().kind: None,
            open_index(diamond(), engine="chain").capabilities().kind: None,
        }
        assert set(kinds) == {"interval", "frozen", "hybrid", "chain"}

    def test_snapshot_engines_declare_it(self):
        for engine_name in ("frozen", "chain"):
            caps = open_index(diamond(), engine=engine_name).capabilities()
            assert caps.is_frozen_snapshot
            assert not caps.supports_updates

    def test_durable_wraps_inner_capabilities(self, tmp_path):
        store = open_index(tmp_path / "store", durable=True)
        try:
            caps = store.capabilities()
            assert caps.durable and caps.supports_updates
            assert caps.kind == "durable"
        finally:
            store.close()


class TestAutoSelection:
    def test_small_graphs_stay_interval(self):
        # Build cost dominates below the small_nodes threshold: auto
        # keeps the flexible updatable index.
        assert isinstance(open_index(diamond()), IntervalTCIndex)

    def test_deep_chain_graph_selects_chain(self):
        arcs = [(f"n{i}", f"n{i+1}") for i in range(400)]
        engine = open_index(DiGraph(arcs))
        assert isinstance(engine, ChainCoverIndex)
        assert engine.reachable("n0", "n400")

    def test_bipartite_graph_avoids_interval(self):
        # Figure 3.6's worst case: every engine stores Θ(n²/4), so auto
        # must pick a compiled flat representation, not the updatable
        # interval index.
        arcs = [(f"s{i}", f"t{j}") for i in range(20) for j in range(20)]
        engine = open_index(DiGraph(arcs))
        assert not isinstance(engine, IntervalTCIndex) or \
            len(engine) < 256  # small carve-out may still apply
        big = [(f"s{i}", f"t{j}") for i in range(160) for j in range(160)]
        engine = open_index(DiGraph(big))
        assert engine.capabilities().is_frozen_snapshot

    def test_build_kwargs_pin_interval(self):
        arcs = [(f"n{i}", f"n{i+1}") for i in range(400)]
        engine = open_index(DiGraph(arcs), policy="first_parent")
        assert isinstance(engine, IntervalTCIndex)
