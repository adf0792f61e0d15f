"""A minimal, fast directed-graph container.

The paper models a binary relation as a directed graph: one node per
distinct value of the source/destination fields and one arc per tuple.
This module provides that substrate.  Nodes are arbitrary hashable labels;
arcs are ordered pairs.  Successor and predecessor sets are both maintained
so that the update algorithms of Section 4 of the paper (which walk
*predecessor* lists) run without auxiliary passes.

The class is deliberately small and dependency-free: the compressed-closure
index, the baselines, and the storage layer all build on it.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, Set, Tuple

from repro.errors import ArcNotFoundError, GraphError, NodeNotFoundError

Node = Hashable
Arc = Tuple[Node, Node]


class DiGraph:
    """A directed graph with O(1) arc insertion, deletion and lookup.

    Adjacency is kept in *insertion order* (dict-backed ordered sets), so
    every traversal — and therefore every tree cover, numbering, and
    benchmark — is fully deterministic across processes, independent of
    string-hash randomisation.

    >>> g = DiGraph()
    >>> g.add_arc("a", "b")
    >>> g.add_arc("b", "c")
    >>> sorted(g.successors("a"))
    ['b']
    >>> g.num_nodes, g.num_arcs
    (3, 2)
    """

    __slots__ = ("_succ", "_pred", "_num_arcs")

    def __init__(self, arcs: Iterable[Arc] = (), nodes: Iterable[Node] = ()) -> None:
        self._succ: Dict[Node, Dict[Node, None]] = {}
        self._pred: Dict[Node, Dict[Node, None]] = {}
        self._num_arcs = 0
        for node in nodes:
            self.add_node(node)
        for source, destination in arcs:
            self.add_arc(source, destination)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Add ``node`` if not already present (idempotent)."""
        if node not in self._succ:
            self._succ[node] = {}
            self._pred[node] = {}

    def add_arc(self, source: Node, destination: Node) -> None:
        """Add the arc ``(source, destination)``, creating nodes as needed.

        Self-loops are rejected: the paper's relations are irreflexive (the
        reflexive convention "every node reaches itself" is applied at query
        time, not stored).  Adding an arc twice is idempotent.
        """
        if source == destination:
            raise GraphError(f"self-loop ({source!r}, {source!r}) is not allowed")
        succ = self._succ
        successors = succ.get(source)
        if successors is None:
            successors = succ[source] = {}
            self._pred[source] = {}
        if destination not in succ:
            succ[destination] = {}
            self._pred[destination] = {}
        if destination not in successors:
            successors[destination] = None
            self._pred[destination][source] = None
            self._num_arcs += 1

    def remove_arc(self, source: Node, destination: Node) -> None:
        """Remove the arc ``(source, destination)``.

        Raises :class:`ArcNotFoundError` if the arc is absent.
        """
        try:
            del self._succ[source][destination]
        except KeyError:
            raise ArcNotFoundError(source, destination) from None
        del self._pred[destination][source]
        self._num_arcs -= 1

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and every incident arc."""
        if node not in self._succ:
            raise NodeNotFoundError(node)
        for successor in list(self._succ[node]):
            self.remove_arc(node, successor)
        for predecessor in list(self._pred[node]):
            self.remove_arc(predecessor, node)
        del self._succ[node]
        del self._pred[node]

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._succ)

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._succ)

    @property
    def num_arcs(self) -> int:
        """Number of arcs (tuples of the base relation)."""
        return self._num_arcs

    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes (insertion order)."""
        return iter(self._succ)

    def arcs(self) -> Iterator[Arc]:
        """Iterate over all arcs as ``(source, destination)`` pairs."""
        for source, successors in self._succ.items():
            for destination in successors:
                yield (source, destination)

    def has_node(self, node: Node) -> bool:
        """Return whether ``node`` is in the graph."""
        return node in self._succ

    def has_arc(self, source: Node, destination: Node) -> bool:
        """Return whether the arc ``(source, destination)`` is present."""
        successors = self._succ.get(source)
        return successors is not None and destination in successors

    def successors(self, node: Node) -> Set[Node]:
        """The *immediate successor list* of ``node`` (paper, Section 3).

        Returns a set-like, insertion-ordered read-only view; callers must
        not mutate it.
        """
        try:
            return self._succ[node].keys()
        except KeyError:
            raise NodeNotFoundError(node) from None

    def predecessors(self, node: Node) -> Set[Node]:
        """The *immediate predecessor list* of ``node`` (paper, Section 3)."""
        try:
            return self._pred[node].keys()
        except KeyError:
            raise NodeNotFoundError(node) from None

    def out_degree(self, node: Node) -> int:
        """Number of immediate successors of ``node``."""
        return len(self.successors(node))

    def in_degree(self, node: Node) -> int:
        """Number of immediate predecessors of ``node``."""
        return len(self.predecessors(node))

    def average_out_degree(self) -> float:
        """Average out-degree, the paper's primary workload parameter."""
        if not self._succ:
            return 0.0
        return self._num_arcs / len(self._succ)

    def roots(self) -> list:
        """Nodes without predecessors, in insertion order."""
        return [node for node in self._succ if not self._pred[node]]

    def leaves(self) -> list:
        """Nodes without successors, in insertion order."""
        return [node for node in self._succ if not self._succ[node]]

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------
    def copy(self) -> "DiGraph":
        """An independent deep copy of the graph."""
        clone = DiGraph()
        for node in self._succ:
            clone.add_node(node)
        for source, destination in self.arcs():
            clone.add_arc(source, destination)
        return clone

    def reverse(self) -> "DiGraph":
        """A new graph with every arc flipped."""
        flipped = DiGraph()
        for node in self._succ:
            flipped.add_node(node)
        for source, destination in self.arcs():
            flipped.add_arc(destination, source)
        return flipped

    def subgraph(self, nodes: Iterable[Node]) -> "DiGraph":
        """The induced subgraph on ``nodes``."""
        keep = set(nodes)
        missing = keep - set(self._succ)
        if missing:
            raise NodeNotFoundError(next(iter(missing)))
        sub = DiGraph(nodes=keep)
        for source in keep:
            for destination in self._succ[source]:
                if destination in keep:
                    sub.add_arc(source, destination)
        return sub

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return self._succ == other._succ

    def __repr__(self) -> str:
        return f"DiGraph(num_nodes={self.num_nodes}, num_arcs={self.num_arcs})"

    def to_dot(self, name: str = "G") -> str:
        """Render the graph in Graphviz dot syntax (handy for debugging)."""
        lines = [f"digraph {name} {{"]
        for node in self._succ:
            lines.append(f'  "{node}";')
        for source, destination in self.arcs():
            lines.append(f'  "{source}" -> "{destination}";')
        lines.append("}")
        return "\n".join(lines)
