"""Heuristic child ordering to boost adjacent-interval merging.

Section 3.2: "Finding an optimum ordering of node numbers to maximize the
benefits of interval merging appears to be a combinatorial problem.  We
have omitted the merging of the intervals in Alg1 ..." — the paper leaves
the ordering question open (Figure 3.8 shows two orderings of the same
tree with different merge outcomes).

This module implements a greedy *affinity* heuristic for it.  Two tree
siblings whose subtrees are entered by the same non-tree predecessor
produce two intervals at that predecessor; if the siblings are numbered
consecutively the intervals abut and merge into one.  So, for every
parent, order the children as a chain that maximises shared-non-tree-
predecessor affinity between neighbours:

1. for each child, collect the sources of non-tree arcs into its subtree;
2. greedily build the chain, always appending the unplaced child with the
   largest predecessor overlap with the chain's current tail (ties break
   by topological index, keeping the result deterministic).

The heuristic only permutes sibling order — any DFS order yields a
correct labeling — so it composes freely with Alg1's (order-independent)
optimal cover, and it can only *help* the subsequent merging pass.
Measured gains live in ``benchmarks/bench_merging.py``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from repro.core.tree_cover import VIRTUAL_ROOT, TreeCover
from repro.graph.digraph import DiGraph, Node


def subtree_external_predecessors(graph: DiGraph,
                                  cover: TreeCover) -> Dict[Node, FrozenSet[Node]]:
    """For every node: sources of non-tree arcs entering its tree subtree.

    Computed bottom-up over the spanning tree: a node's set is its own
    non-tree predecessors plus the union over its tree children, minus
    nodes inside the subtree itself (an arc from inside is not "external").
    """
    # Process in reverse numbering order of the tree (children first):
    # iterate nodes so parents come after children via an explicit
    # post-order walk of the cover.
    result: Dict[Node, Set[Node]] = {}
    members: Dict[Node, Set[Node]] = {}
    stack: List[tuple] = [(child, False) for child
                          in cover.tree_children(VIRTUAL_ROOT)]
    while stack:
        node, expanded = stack.pop()
        if not expanded:
            stack.append((node, True))
            for child in cover.tree_children(node):
                stack.append((child, False))
            continue
        inside: Set[Node] = {node}
        external: Set[Node] = set()
        for child in cover.tree_children(node):
            inside |= members[child]
            external |= result[child]
        tree_parent = cover.parent.get(node)
        for predecessor in graph.predecessors(node):
            if predecessor != tree_parent:
                external.add(predecessor)
        external -= inside
        members[node] = inside
        result[node] = external
    return {node: frozenset(external) for node, external in result.items()}


def order_children_for_merging(graph: DiGraph, cover: TreeCover) -> int:
    """Reorder every child list by the affinity heuristic (in place).

    Returns the number of parents whose child order changed.  Call before
    :func:`repro.core.labeling.assign_postorder`; the cover's child lists
    are what the numbering walks.
    """
    external = subtree_external_predecessors(graph, cover)
    index_of = {node: position for position, node in enumerate(cover.order)}
    changed = 0
    for parent in list(cover.children):
        children = cover.children.get(parent, [])
        if len(children) < 2:
            continue
        ordered = _affinity_chain(children, external, index_of)
        if ordered != children:
            cover.children[parent] = ordered
            changed += 1
    return changed


def _affinity_chain(children: List[Node],
                    external: Dict[Node, FrozenSet[Node]],
                    index_of: Dict[Node, int]) -> List[Node]:
    """Greedy maximum-affinity chain over one sibling group."""
    remaining = sorted(children, key=index_of.__getitem__)
    # Seed with the child that has the largest total affinity mass so the
    # chain grows from the densest cluster (deterministic tie-break).
    def total_affinity(child: Node) -> int:
        return sum(len(external[child] & external[other])
                   for other in remaining if other is not child)

    seed = max(remaining, key=lambda child: (total_affinity(child),
                                             -index_of[child]))
    chain = [seed]
    remaining.remove(seed)
    while remaining:
        tail = chain[-1]
        best = max(remaining,
                   key=lambda child: (len(external[tail] & external[child]),
                                      -index_of[child]))
        chain.append(best)
        remaining.remove(best)
    return chain


def merge_ordered_ranks(graph: DiGraph,
                        cover: TreeCover) -> Tuple[List[int], List[int]]:
    """:func:`~repro.core.labeling.postorder_ranks`' ``(rank, entry)``
    for ``cover`` once its siblings are reordered for merging, on
    positions in ``cover.order``: the direct frozen build's numbering
    under ``merge_ordering=True``."""
    from repro.core.labeling import postorder_walk
    order_children_for_merging(graph, cover)
    visits, entries = postorder_walk(cover)
    position = cover._index_in_order
    rank = [0] * len(visits)
    entry = [0] * len(visits)
    for visit, (node, first) in enumerate(zip(visits, entries)):
        rank[position[node]] = visit
        entry[position[node]] = first
    return rank, entry
