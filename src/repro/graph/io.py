"""Reading and writing graphs as edge lists and JSON documents.

The base relation of the paper is a two-column table ``(source,
destination)``; the natural on-disk form is a whitespace-separated edge
list, one tuple per line, with ``#`` comments.  JSON round-tripping is also
provided for graphs whose node labels are not plain strings.

Every JSON-backed format (index documents, the write-ahead log,
checkpoints, RTCF's label blob) shares one label rule: a node label is a
string, a number, or a tuple of these.  JSON writes a tuple as an array,
and :func:`decode_label` turns every array back into a tuple — a list can
never be a node (it is unhashable), so the rule is unambiguous.
"""

from __future__ import annotations

import json
from collections import defaultdict
from itertools import chain, count
from pathlib import Path
from typing import List, Tuple, Union

from repro.errors import GraphError
from repro.graph.digraph import DiGraph

PathLike = Union[str, Path]


def decode_label(label):
    """A node label as stored in JSON, with arrays turned back into tuples."""
    if type(label) is list:
        return tuple(decode_label(part) for part in label)
    return label


def decode_labels(labels) -> List:
    """:func:`decode_label` over a list of labels."""
    return [decode_label(label) for label in labels]


def _parse_edge_list(text: str) -> Tuple[List[str], List[int]]:
    """The one edge-list parser: a document's tokens, and each line's
    token count, in order.

    Each non-blank, non-comment line holds ``source destination``
    separated by whitespace; a line with a single token declares an
    isolated node.  A line with more than two tokens raises here; the
    caller checks its arcs for self-loops.  Either way the first bad
    line raises first (:func:`_raise_first_bad_line`).  The tokens come
    as one flat list: a list per line would leave the garbage collector
    hundreds of thousands of lists to scan.
    """
    lines = text.splitlines()
    body = text
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
        body = "\n".join(lines)
    widths = list(map(len, map(str.split, lines)))
    if max(widths, default=0) > 2:
        _raise_first_bad_line(text)
    # Every line break is whitespace too, so the document's tokens are
    # its lines' tokens in order.
    return body.split(), widths


def _raise_first_bad_line(text: str) -> None:
    """Raise the error of the first line with more than two tokens or a
    self-loop."""
    for line_number, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if len(parts) > 2:
            raise GraphError(
                f"line {line_number}: expected 'source destination', got {raw!r}"
            )
        if len(parts) == 2 and parts[0] == parts[1]:
            DiGraph().add_arc(*parts)


class EdgeList:
    """A graph on integer node ids: what a snapshot build runs on.

    Node ``i`` is ``labels[i]``; arc ``k`` runs from ``src[k]`` to
    ``dst[k]`` (int64 arrays).  Arcs are distinct and loop-free, in the
    order a :class:`DiGraph` lists them, so every traversal over the
    arrays visits nodes and successors in the graph's own order.
    """

    __slots__ = ("labels", "src", "dst")

    def __init__(self, labels: List, src, dst) -> None:
        self.labels = labels
        self.src = src
        self.dst = dst

    @classmethod
    def parse(cls, text: str) -> "EdgeList":
        """Parse an edge-list document (see :func:`loads_edge_list`):
        labels in order of first appearance, repeated arcs dropped with
        the first occurrence kept."""
        import numpy
        tokens, widths = _parse_edge_list(text)
        # A defaultdict numbers each label at its first appearance, so one
        # C-level pass over the tokens interns them all in document order.
        ids = defaultdict(count().__next__)
        tokens = numpy.fromiter(map(ids.__getitem__, tokens), numpy.int64,
                                len(tokens))
        if len(tokens) != 2 * len(widths):  # blank and isolated-node lines
            counts = numpy.array(widths, dtype=numpy.int64)
            tokens = tokens[numpy.repeat(counts == 2, counts)]
        src, dst = tokens[0::2], tokens[1::2]
        if (src == dst).any():
            _raise_first_bad_line(text)
        keys = src * len(ids) + dst
        ordered = numpy.sort(keys)
        if (ordered[1:] == ordered[:-1]).any():  # repeated arcs
            first = numpy.unique(keys, return_index=True)[1]
            first.sort()
            src, dst = src[first], dst[first]
        return cls(list(ids), numpy.ascontiguousarray(src),
                   numpy.ascontiguousarray(dst))

    @classmethod
    def from_graph(cls, graph: DiGraph) -> "EdgeList":
        """``graph``'s nodes in insertion order, its arcs as
        :meth:`DiGraph.arcs` lists them."""
        import numpy
        labels = list(graph)
        get = dict(zip(labels, range(len(labels)))).__getitem__
        successors = list(map(graph.successors, labels))
        counts = numpy.fromiter(map(len, successors), numpy.int64, len(labels))
        return cls(labels,
                   numpy.repeat(numpy.arange(len(labels), dtype=numpy.int64),
                                counts),
                   numpy.fromiter(map(get, chain.from_iterable(successors)),
                                  numpy.int64, int(counts.sum())))

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self.labels)

    def to_graph(self) -> DiGraph:
        """The :class:`DiGraph` with these nodes and arcs, in this order."""
        label = self.labels.__getitem__
        return DiGraph(arcs=zip(map(label, self.src.tolist()),
                                map(label, self.dst.tolist())),
                       nodes=self.labels)


def loads_edge_list(text: str) -> DiGraph:
    """Parse an edge-list document into a :class:`DiGraph`.

    Each non-blank, non-comment line holds ``source destination`` separated
    by whitespace; a line with a single token declares an isolated node.
    Node labels are kept as strings.
    """
    tokens, widths = _parse_edge_list(text)
    graph = DiGraph()
    add_node, add_arc = graph.add_node, graph.add_arc
    take = iter(tokens).__next__
    # add_arc raises on a self-loop, the only bad line the parser leaves,
    # so the first one raises first.
    for width in widths:
        if width == 2:
            add_arc(take(), take())
        elif width:
            add_node(take())
    return graph


def dumps_edge_list(graph: DiGraph) -> str:
    """Render a graph as an edge-list document (inverse of :func:`loads_edge_list`)."""
    lines = []
    for node in graph.nodes():
        if graph.out_degree(node) == 0 and graph.in_degree(node) == 0:
            lines.append(str(node))
    for source, destination in graph.arcs():
        lines.append(f"{source} {destination}")
    return "\n".join(lines) + ("\n" if lines else "")


def load_edge_list(path: PathLike) -> DiGraph:
    """Read an edge-list file from ``path``."""
    return loads_edge_list(Path(path).read_text())


def read_edge_list(path: PathLike) -> EdgeList:
    """Read an edge-list file from ``path`` as an :class:`EdgeList`."""
    return EdgeList.parse(Path(path).read_text())


def save_edge_list(graph: DiGraph, path: PathLike) -> None:
    """Write ``graph`` to ``path`` as an edge list."""
    Path(path).write_text(dumps_edge_list(graph))


def graph_to_dict(graph: DiGraph) -> dict:
    """A JSON-safe dict representation (labels pass through ``json`` rules)."""
    return {
        "nodes": list(graph.nodes()),
        "arcs": [list(arc) for arc in graph.arcs()],
    }


def graph_from_dict(document: dict) -> DiGraph:
    """Rebuild a graph from :func:`graph_to_dict` output.

    Labels go through :func:`decode_label`, so tuple labels come back as
    tuples.
    """
    graph = DiGraph(nodes=decode_labels(document.get("nodes", ())))
    for source, destination in document.get("arcs", ()):
        graph.add_arc(decode_label(source), decode_label(destination))
    return graph


def save_json(graph: DiGraph, path: PathLike) -> None:
    """Write ``graph`` to ``path`` as a JSON document."""
    Path(path).write_text(json.dumps(graph_to_dict(graph), indent=2))


def load_json(path: PathLike) -> DiGraph:
    """Read a JSON graph document from ``path``."""
    return graph_from_dict(json.loads(Path(path).read_text()))
