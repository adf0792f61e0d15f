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
from pathlib import Path
from typing import List, Union

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


def loads_edge_list(text: str) -> DiGraph:
    """Parse an edge-list document into a :class:`DiGraph`.

    Each non-blank, non-comment line holds ``source destination`` separated
    by whitespace; a line with a single token declares an isolated node.
    Node labels are kept as strings.
    """
    graph = DiGraph()
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1:
            graph.add_node(parts[0])
        elif len(parts) == 2:
            graph.add_arc(parts[0], parts[1])
        else:
            raise GraphError(
                f"line {line_number}: expected 'source destination', got {raw!r}"
            )
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
