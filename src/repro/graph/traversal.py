"""Graph traversals: topological orders, DFS, and pointer-chasing reachability.

These are the primitive walks used throughout the library:

* Alg1 (optimal tree cover) scans nodes *in topological order*;
* interval propagation scans nodes *in reverse topological order*;
* the :mod:`repro.baselines.pointer_chasing` baseline answers reachability
  queries with the plain DFS implemented here.

All traversals are iterative so that graphs with tens of thousands of nodes
do not hit Python's recursion limit.
"""

from __future__ import annotations

from itertools import accumulate, chain
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import CycleError, NodeNotFoundError
from repro.graph.digraph import DiGraph, Node


def kahn_order(indptr: Sequence[int], indices: Sequence[int]) -> List[int]:
    """Kahn's FIFO topological order of a graph on ids ``0..n-1``.

    Node ``u``'s successors are ``indices[indptr[u]:indptr[u + 1]]``.
    Sources start the queue in id order, and each node joins it when its
    last predecessor leaves, in successor order.  On a cyclic graph the
    result misses every node on or below a cycle.
    """
    in_degree = [0] * (len(indptr) - 1)
    for head in indices:
        in_degree[head] += 1
    order = [node for node, degree in enumerate(in_degree) if not degree]
    # The list is the FIFO queue: iteration reaches what is appended.
    for node in order:
        for successor in indices[indptr[node]:indptr[node + 1]]:
            in_degree[successor] -= 1
            if not in_degree[successor]:
                order.append(successor)
    return order


def graph_csr(graph: DiGraph, nodes: Sequence[Node]
              ) -> Tuple[List[int], List[int]]:
    """``graph``'s out-CSR ``(indptr, indices)`` as int lists, on
    positions in ``nodes`` (every node of the graph, in any order)."""
    get = dict(zip(nodes, range(len(nodes)))).__getitem__
    successors = list(map(graph.successors, nodes))
    return ([0, *accumulate(map(len, successors))],
            list(map(get, chain.from_iterable(successors))))


def out_csr(np, num_nodes: int, src, dst):
    """The out-adjacency CSR ``(indptr, indices)`` of the arcs
    ``src[k] -> dst[k]`` on ids below ``num_nodes``; each node's
    successors keep their order in the arc arrays."""
    indices = dst[np.argsort(src, kind="stable")]
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_nodes), out=indptr[1:])
    return indptr, indices


def topological_arcs(np, edges, graph: Optional[DiGraph] = None):
    """Kahn's order of an :class:`~repro.graph.io.EdgeList` and its arcs
    renamed to positions in that order: ``(order, src, dst)``, with
    ``order`` the node ids in topological order and every arc running
    from a lower position to a higher one.

    A cyclic graph raises :class:`CycleError` with :func:`find_cycle`'s
    cycle of ``graph``, or of ``edges.to_graph()`` when none is given.
    """
    n = edges.num_nodes
    indptr, indices = out_csr(np, n, edges.src, edges.dst)
    order = kahn_order(indptr.tolist(), indices.tolist())
    if len(order) != n:
        raise CycleError(cycle=find_cycle(
            edges.to_graph() if graph is None else graph))
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n, dtype=np.int64)
    return order, position[edges.src], position[edges.dst]


def topological_order(graph: DiGraph) -> List[Node]:
    """Return the nodes in a topological order (Kahn's algorithm).

    An adapter over :func:`kahn_order`: nodes become ids in insertion
    order, so the order is deterministic for a given insertion order of
    the graph.  Raises :class:`CycleError` if the graph is cyclic; the
    exception carries one offending cycle for diagnostics.
    """
    nodes = list(graph)
    order = kahn_order(*graph_csr(graph, nodes))
    if len(order) != len(nodes):
        raise CycleError(cycle=find_cycle(graph))
    return list(map(nodes.__getitem__, order))


def reverse_topological_order(graph: DiGraph) -> List[Node]:
    """Nodes ordered so every node appears *after* all of its successors."""
    return list(reversed(topological_order(graph)))


def is_acyclic(graph: DiGraph) -> bool:
    """Return whether the graph contains no directed cycle."""
    try:
        topological_order(graph)
    except CycleError:
        return False
    return True


def find_cycle(graph: DiGraph) -> Optional[List[Node]]:
    """Find one directed cycle, or ``None`` if the graph is acyclic.

    The cycle is returned as a node list ``[v0, v1, ..., v0]``.
    """
    WHITE, GREY, BLACK = 0, 1, 2
    color: Dict[Node, int] = {node: WHITE for node in graph}
    parent: Dict[Node, Node] = {}
    for start in graph:
        if color[start] != WHITE:
            continue
        stack = [(start, iter(graph.successors(start)))]
        color[start] = GREY
        while stack:
            node, successors = stack[-1]
            advanced = False
            for successor in successors:
                if color[successor] == WHITE:
                    color[successor] = GREY
                    parent[successor] = node
                    stack.append((successor, iter(graph.successors(successor))))
                    advanced = True
                    break
                if color[successor] == GREY:
                    cycle = [successor]
                    walk = node
                    while walk != successor:
                        cycle.append(walk)
                        walk = parent[walk]
                    cycle.append(successor)
                    cycle.reverse()
                    return cycle
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return None


def dfs_preorder(graph: DiGraph, start: Node) -> Iterator[Node]:
    """Depth-first preorder from ``start`` (each node yielded once)."""
    if start not in graph:
        raise NodeNotFoundError(start)
    seen: Set[Node] = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        yield node
        # Reversed so that iteration order matches recursive DFS over the
        # successor set's iteration order.
        for successor in reversed(list(graph.successors(node))):
            if successor not in seen:
                seen.add(successor)
                stack.append(successor)


def reachable_from(graph: DiGraph, start: Node, *, reflexive: bool = True) -> Set[Node]:
    """The *successor list* of ``start`` by pointer chasing (plain DFS).

    This is the un-indexed ground truth the compressed closure is tested
    against.  With ``reflexive=True`` (the paper's convention) ``start`` is
    included in its own successor list.
    """
    reached = set(dfs_preorder(graph, start))
    if not reflexive:
        reached.discard(start)
    return reached


def can_reach(graph: DiGraph, source: Node, destination: Node) -> bool:
    """Pointer-chasing reachability query with early exit.

    Reflexive: ``can_reach(g, v, v)`` is ``True`` for any node ``v``.
    """
    if source not in graph:
        raise NodeNotFoundError(source)
    if destination not in graph:
        raise NodeNotFoundError(destination)
    if source == destination:
        return True
    seen: Set[Node] = {source}
    stack = [source]
    while stack:
        node = stack.pop()
        for successor in graph.successors(node):
            if successor == destination:
                return True
            if successor not in seen:
                seen.add(successor)
                stack.append(successor)
    return False


def ancestors_of(graph: DiGraph, node: Node, *, reflexive: bool = True) -> Set[Node]:
    """The *predecessor list* of ``node``: everything that can reach it."""
    if node not in graph:
        raise NodeNotFoundError(node)
    reached: Set[Node] = {node}
    stack = [node]
    while stack:
        current = stack.pop()
        for predecessor in graph.predecessors(current):
            if predecessor not in reached:
                reached.add(predecessor)
                stack.append(predecessor)
    if not reflexive:
        reached.discard(node)
    return reached
