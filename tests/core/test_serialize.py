"""Tests for JSON serialisation of built indexes."""

import json

import pytest

from repro.core.hybrid import HybridTCIndex
from repro.core.index import IntervalTCIndex
from repro.core.serialize import (
    index_from_dict,
    index_to_dict,
    save_frozen_index,
    save_hybrid_index,
    save_index,
)
from repro.factory import open_index
from repro.errors import ReproError
from repro.graph.generators import bipartite_worst_case, random_dag
from repro.graph.traversal import topological_order


def assert_equivalent(first, second):
    assert set(first.nodes()) == set(second.nodes())
    for node in first.nodes():
        assert first.successors(node) == second.successors(node)
    assert first.num_intervals == second.num_intervals
    assert first.gap == second.gap
    assert first.policy == second.policy


class TestRoundTrip:
    def test_dict_round_trip(self, paper_dag):
        index = IntervalTCIndex.build(paper_dag)
        again = index_from_dict(index_to_dict(index))
        assert_equivalent(index, again)
        again.check_invariants()
        again.verify()

    def test_json_serialisable(self, paper_dag):
        index = IntervalTCIndex.build(paper_dag)
        document = json.loads(json.dumps(index_to_dict(index)))
        assert_equivalent(index, index_from_dict(document))

    def test_file_round_trip(self, tmp_path, paper_dag):
        index = IntervalTCIndex.build(paper_dag, gap=4, merge=True)
        path = tmp_path / "index.json"
        save_index(index, path)
        loaded = open_index(path, engine="interval")
        assert_equivalent(index, loaded)
        assert loaded.merged is True

    def test_random_graph_round_trip(self):
        graph = random_dag(60, 2.5, 17)
        index = IntervalTCIndex.build(graph, gap=1)
        again = index_from_dict(index_to_dict(index))
        assert_equivalent(index, again)
        again.verify()

    def test_loaded_index_is_updatable(self, tmp_path, paper_dag):
        index = IntervalTCIndex.build(paper_dag)
        path = tmp_path / "index.json"
        save_index(index, path)
        loaded = open_index(path, engine="interval")
        loaded.add_node("post-load", parents=["b"])
        loaded.remove_arc("a", "c")
        loaded.check_invariants()
        loaded.verify()

    def test_empty_index_round_trip(self):
        from repro.graph.digraph import DiGraph
        index = IntervalTCIndex.build(DiGraph())
        assert_equivalent(index, index_from_dict(index_to_dict(index)))


class TestVersioning:
    def test_unknown_version_rejected(self, paper_dag):
        document = index_to_dict(IntervalTCIndex.build(paper_dag))
        document["format_version"] = 99
        with pytest.raises(ReproError):
            index_from_dict(document)

    def test_missing_version_rejected(self, paper_dag):
        document = index_to_dict(IntervalTCIndex.build(paper_dag))
        del document["format_version"]
        with pytest.raises(ReproError):
            index_from_dict(document)



def _through_rtcf(tmp_path, index):
    path = tmp_path / "closure.rtcf"
    save_frozen_index(index.freeze(), path, format="rtcf")
    return index, open_index(path)


def _through_mutable_json(tmp_path, index):
    save_index(index, tmp_path / "closure.json")
    return index, open_index(tmp_path / "closure.json")


def _through_frozen_json(tmp_path, index):
    save_frozen_index(index.freeze(), tmp_path / "frozen.json")
    return index, open_index(tmp_path / "frozen.json")


def _through_hybrid_json(tmp_path, index):
    """The delta log holds a tuple node and tuple arcs."""
    hybrid = HybridTCIndex.build(index.graph.copy(), max_delta=10**6,
                                 max_ratio=10**6)
    hybrid.add_node(("late", 0), [("s", 0), ("s", 1)])
    save_hybrid_index(hybrid, tmp_path / "hybrid.json")
    return hybrid, open_index(tmp_path / "hybrid.json")


def _through_durable_store(tmp_path, index):
    """Tuple ``add_node``s land in a checkpoint and in the WAL tail."""
    directory = tmp_path / "store"
    store = open_index(directory, durable=True)
    order = topological_order(index.graph)
    for position, node in enumerate(order):
        store.add_node(node, sorted(index.graph.predecessors(node)))
        if position == len(order) // 2:
            store.checkpoint()
    store.close()
    return index, open_index(directory, durable=True)


@pytest.mark.parametrize("route", [
    _through_rtcf, _through_mutable_json, _through_frozen_json,
    _through_hybrid_json, _through_durable_store,
], ids=lambda route: route.__name__[len("_through_"):])
def test_tuple_labels_round_trip(tmp_path, route):
    """Tuple labels come back as tuples from every saver and the store."""
    source, reopened = route(
        tmp_path, IntervalTCIndex.build(bipartite_worst_case(3, 3)))
    assert set(reopened.nodes()) == set(source.nodes())
    for node in source.nodes():
        assert reopened.successors(node) == source.successors(node)
        assert reopened.predecessors(node) == source.predecessors(node)
    assert reopened.reachable(("s", 2), ("t", 0))
    if hasattr(reopened, "close"):
        reopened.close()
