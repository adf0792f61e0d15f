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

from collections import deque
from typing import Dict, Iterator, List, Optional, Set

from repro.errors import CycleError, NodeNotFoundError
from repro.graph.digraph import DiGraph, Node


def topological_order(graph: DiGraph) -> List[Node]:
    """Return the nodes in a topological order (Kahn's algorithm).

    Deterministic for a given insertion order of the graph.  Raises
    :class:`CycleError` if the graph is cyclic; the exception carries one
    offending cycle for diagnostics.
    """
    in_degree: Dict[Node, int] = {node: graph.in_degree(node) for node in graph}
    ready = deque(node for node in graph if in_degree[node] == 0)
    order: List[Node] = []
    while ready:
        node = ready.popleft()
        order.append(node)
        for successor in graph.successors(node):
            in_degree[successor] -= 1
            if in_degree[successor] == 0:
                ready.append(successor)
    if len(order) != graph.num_nodes:
        raise CycleError(cycle=find_cycle(graph))
    return order


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
