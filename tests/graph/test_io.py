"""Tests for edge-list and JSON graph IO."""

import pytest

from repro.errors import GraphError
from repro.graph.digraph import DiGraph
from repro.graph.io import (
    EdgeList,
    dumps_edge_list,
    graph_from_dict,
    graph_to_dict,
    load_edge_list,
    load_json,
    loads_edge_list,
    save_edge_list,
    save_json,
)


class TestEdgeListParsing:
    def test_basic(self):
        graph = loads_edge_list("a b\nb c\n")
        assert graph.has_arc("a", "b") and graph.has_arc("b", "c")

    def test_comments_and_blanks(self):
        text = """
        # a comment
        a b   # trailing comment

        b c
        """
        graph = loads_edge_list(text)
        assert graph.num_arcs == 2

    def test_isolated_node_line(self):
        graph = loads_edge_list("lonely\na b\n")
        assert graph.has_node("lonely")
        assert graph.out_degree("lonely") == 0

    def test_bad_line_raises_with_line_number(self):
        with pytest.raises(GraphError) as excinfo:
            loads_edge_list("a b\nx y z\n")
        assert "line 2" in str(excinfo.value)

    def test_empty_document(self):
        assert loads_edge_list("").num_nodes == 0

    @pytest.mark.parametrize("text, error", [
        ("a b\nc c\nx y z\n", "self-loop \\('c', 'c'\\)"),
        ("a b\nx y z\nc c\n", "line 2"),
        ("# only\nc c # loop\n", "self-loop")])
    def test_first_bad_line_raises(self, text, error):
        """Bad lines raise in document order, whatever their kind."""
        with pytest.raises(GraphError, match=error):
            loads_edge_list(text)
        with pytest.raises(GraphError, match=error):
            EdgeList.parse(text)


class TestEdgeListArrays:
    TEXT = "x\na b\nb c\na b\n\nc d # tail\r\nz\nb c\nx\n"

    def test_labels_in_first_appearance_order(self):
        edges = EdgeList.parse(self.TEXT)
        assert edges.labels == ["x", "a", "b", "c", "d", "z"]
        assert edges.num_nodes == 6
        assert list(zip(edges.src.tolist(), edges.dst.tolist())) == [
            (1, 2), (2, 3), (3, 4)]

    def test_same_graph_as_the_digraph_parser(self):
        graph = loads_edge_list(self.TEXT)
        assert EdgeList.parse(self.TEXT).to_graph() == graph
        assert list(EdgeList.parse(self.TEXT).to_graph()) == list(graph)
        again = EdgeList.from_graph(graph)
        assert again.labels == list(graph)
        assert list(again.to_graph().arcs()) == list(graph.arcs())

    def test_empty(self):
        for text in ("", "# nothing\n\n", "solo\n"):
            edges = EdgeList.parse(text)
            assert len(edges.src) == len(edges.dst) == 0
            assert edges.to_graph() == loads_edge_list(text)


class TestEdgeListRoundTrip:
    def test_round_trip(self, paper_dag):
        assert loads_edge_list(dumps_edge_list(paper_dag)) == paper_dag

    def test_isolated_nodes_round_trip(self):
        graph = DiGraph(nodes=["solo"])
        graph.add_arc("a", "b")
        again = loads_edge_list(dumps_edge_list(graph))
        assert again.has_node("solo")

    def test_empty_round_trip(self):
        assert dumps_edge_list(DiGraph()) == ""

    def test_file_round_trip(self, tmp_path, paper_dag):
        path = tmp_path / "g.edges"
        save_edge_list(paper_dag, path)
        assert load_edge_list(path) == paper_dag


class TestJson:
    def test_dict_round_trip(self, paper_dag):
        assert graph_from_dict(graph_to_dict(paper_dag)) == paper_dag

    def test_file_round_trip(self, tmp_path, paper_dag):
        path = tmp_path / "g.json"
        save_json(paper_dag, path)
        assert load_json(path) == paper_dag

    def test_isolated_nodes_survive(self, tmp_path):
        graph = DiGraph(nodes=["only"])
        path = tmp_path / "g.json"
        save_json(graph, path)
        assert load_json(path).has_node("only")

    def test_missing_keys_tolerated(self):
        assert graph_from_dict({}).num_nodes == 0
