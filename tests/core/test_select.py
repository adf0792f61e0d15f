"""graph_stats / recommend_engine: the ``engine="auto"`` decision rule."""

import dataclasses

import pytest

from repro import DiGraph, graph_stats, open_index, recommend_engine
from repro.core.chain_cover import ChainCoverIndex
from repro.core.index import IntervalTCIndex
from repro.core.select import THRESHOLDS, GraphStats


def path_graph(length: int) -> DiGraph:
    return DiGraph([(f"n{i}", f"n{i+1}") for i in range(length)])


def bipartite(width: int) -> DiGraph:
    return DiGraph([(f"s{i}", f"t{j}") for i in range(width)
                    for j in range(width)])


class TestGraphStats:
    def test_costs_are_linear_inputs_only(self):
        stats = graph_stats(path_graph(10))
        assert stats.num_nodes == 11
        assert stats.num_arcs == 10
        assert stats.depth == 10
        assert stats.depth_ratio == pytest.approx(10 / 11)
        assert stats.chain_width_estimate == 1

    def test_bipartite_shape(self):
        stats = graph_stats(bipartite(8))
        assert stats.depth == 1
        assert stats.avg_out_degree == pytest.approx(4.0)
        assert stats.chain_width_estimate == 8

    def test_empty_graph(self):
        stats = graph_stats(DiGraph())
        assert stats.num_nodes == 0
        assert stats.depth == 0
        assert recommend_engine(stats.num_nodes) == "interval"

    def test_as_dict_round_trips_fields(self):
        stats = graph_stats(path_graph(4))
        payload = stats.as_dict()
        assert payload == {field.name: getattr(stats, field.name)
                           for field in dataclasses.fields(GraphStats)}


class TestRecommendation:
    def test_small_graphs_always_interval(self):
        assert recommend_engine(len(path_graph(10))) == "interval"
        assert recommend_engine(len(bipartite(10))) == "interval"
        assert recommend_engine(THRESHOLDS["small_nodes"] - 1) == "interval"

    def test_deep_chain_selects_chain(self):
        graph = path_graph(THRESHOLDS["small_nodes"] * 2)
        assert recommend_engine(len(graph)) == "chain"

    def test_large_bipartite_selects_chain(self):
        # The measured Figure 3.6 cell: chain posts the lowest
        # build+query total, so auto picks it over frozen here too.
        assert recommend_engine(len(bipartite(160))) == "chain"

    def test_threshold_table_is_complete(self):
        assert set(THRESHOLDS) == {"small_nodes"}


class TestAutoAgreement:
    """open_index(engine='auto') builds exactly what recommend_engine says."""

    @pytest.mark.parametrize("maker,expected", [
        (lambda: path_graph(10), IntervalTCIndex),
        (lambda: path_graph(600), ChainCoverIndex),
        (lambda: bipartite(160), ChainCoverIndex),
    ])
    def test_auto_matches_recommendation(self, maker, expected):
        graph = maker()
        recommended = recommend_engine(graph.num_nodes)
        built = open_index(graph)
        assert isinstance(built, expected)
        assert built.capabilities().kind == recommended

    def test_auto_computes_no_graph_statistics(self, monkeypatch):
        """The rule reads only the node count, so auto skips the
        chain decomposition and longest-path pass."""
        def refuse(graph):
            raise AssertionError("engine='auto' computed graph_stats")
        monkeypatch.setattr("repro.core.select.graph_stats", refuse)
        assert isinstance(open_index(path_graph(600)), ChainCoverIndex)
