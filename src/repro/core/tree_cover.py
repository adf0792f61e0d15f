"""Tree covers of a DAG, including the paper's optimal Alg1.

A *tree cover* of a DAG ``G`` is a spanning tree (rooted at a virtual root)
in which every node's tree parent is one of its immediate predecessors in
``G`` (nodes without predecessors hang off the virtual root).  The
compression quality of the interval scheme depends entirely on which
incoming arc each node keeps as its tree arc.

**Alg1** (Section 3.2) makes that choice greedily: scan nodes in
topological order and, for every node, keep the incoming arc from the
predecessor with the *largest predecessor set*, computing predecessor sets
incrementally along the way.  Theorem 1 proves this minimises the total
number of intervals over all tree covers (without adjacent-interval
merging); ``tests/core/test_optimality.py`` re-verifies the theorem by
brute force on small graphs.

Predecessor sets are represented as Python integers used as bit masks:
union is ``|`` and cardinality is ``int.bit_count()``, which keeps Alg1
comfortably fast at the paper's 1000-4000 node scales.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Union

from repro.errors import GraphError
from repro.graph.digraph import DiGraph, Node
from repro.graph.traversal import topological_arcs, topological_order


class _VirtualRoot:
    """Singleton label for the virtual root that ties disjoint components together."""

    __slots__ = ()
    _instance: Optional["_VirtualRoot"] = None

    def __new__(cls) -> "_VirtualRoot":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<virtual-root>"


#: The virtual level-0 root node of the paper (Alg1, step 1).  It is never a
#: node of the user's graph and never appears in query answers.
VIRTUAL_ROOT = _VirtualRoot()

#: Tree-cover construction policies.  ``"alg1"`` is the paper's optimum;
#: the others exist for the ablation benchmark.
POLICIES = ("alg1", "first_parent", "last_parent", "random", "min_pred")


@dataclass
class TreeCover:
    """A tree cover: parent/children maps plus bookkeeping.

    ``parent`` maps every graph node to its tree parent (possibly
    :data:`VIRTUAL_ROOT`); ``children`` maps every node *and* the virtual
    root to an ordered list of tree children.  ``order`` is the topological
    order of the underlying graph the cover was built from — the interval
    propagation step reuses it.
    """

    parent: Dict[Node, Node]
    children: Dict[Node, List[Node]]
    order: List[Node]
    policy: str = "alg1"
    _index_in_order: Dict[Node, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self._index_in_order:
            self._index_in_order = {node: i for i, node in enumerate(self.order)}

    def is_tree_arc(self, source: Node, destination: Node) -> bool:
        """Whether ``(source, destination)`` is an arc of the spanning tree."""
        return self.parent.get(destination) == source

    def tree_arcs(self) -> Iterator[tuple]:
        """All tree arcs whose source is a real graph node."""
        for child, parent in self.parent.items():
            if parent is not VIRTUAL_ROOT:
                yield (parent, child)

    def tree_children(self, node: Node) -> List[Node]:
        """Ordered tree children of ``node`` (or of the virtual root)."""
        return self.children.get(node, [])

    def depth_of(self, node: Node) -> int:
        """Tree depth (virtual root at depth 0)."""
        depth = 0
        current = node
        while current is not VIRTUAL_ROOT:
            current = self.parent[current]
            depth += 1
        return depth

    def check_spanning(self, graph: DiGraph) -> None:
        """Validate that the cover spans ``graph`` with graph-arc parents."""
        for node in graph:
            if node not in self.parent:
                raise GraphError(f"tree cover does not span node {node!r}")
            parent = self.parent[node]
            if parent is not VIRTUAL_ROOT and not graph.has_arc(parent, node):
                raise GraphError(
                    f"tree arc ({parent!r}, {node!r}) is not an arc of the graph"
                )


def check_policy(policy: str) -> None:
    """Reject unknown tree-cover policies."""
    if policy not in POLICIES:
        raise GraphError(f"unknown tree-cover policy {policy!r}; expected one of {POLICIES}")


def tree_parents(np, num_nodes: int, src, dst, policy: str = "alg1", *,
                 rng: Union[random.Random, int, None] = None) -> List[int]:
    """Every node's tree parent under ``policy``, on topological positions.

    Node ``i`` is the ``i``-th node of a topological order and every arc
    ``src[k] -> dst[k]`` runs from a lower position to a higher one (see
    :func:`~repro.graph.traversal.topological_arcs`).  Entry ``i`` is the
    position of node ``i``'s tree parent, or ``-1`` for the virtual root.

    ``first_parent`` and ``last_parent`` take the lowest and highest
    predecessor position.  The other policies scan the nodes in order,
    each over its predecessors by ascending position: ``random`` draws one
    with ``rng``; ``alg1`` keeps the one with the LARGEST predecessor set
    and ``min_pred`` (ablation) the smallest, ties broken toward the
    earliest position.  Callers check ``policy`` (:func:`check_policy`)
    before any work.
    """
    n = num_nodes
    if policy in ("first_parent", "last_parent"):
        if policy == "first_parent":
            best = np.full(n, n, dtype=np.int64)
            np.minimum.at(best, dst, src)
            best[best == n] = -1
        else:
            best = np.full(n, -1, dtype=np.int64)
            np.maximum.at(best, dst, src)
        return best.tolist()

    predecessors_of = src[np.argsort(dst * n + src)].tolist()
    bounds = [0, *np.cumsum(np.bincount(dst, minlength=n)).tolist()]
    if policy == "random" and not isinstance(rng, random.Random):
        rng = random.Random(rng)
    parent = [-1] * n
    # Predecessor sets as bit masks over positions.  Theorem 1 only ever
    # needs |pred(p)| for the arg-max, so the popcount is taken once per
    # node here rather than once per candidate arc.
    pred_mask = [0] * n
    pred_size = [0] * n
    for node in range(n):
        predecessors = predecessors_of[bounds[node]:bounds[node + 1]]
        if not predecessors:
            continue
        if policy == "random":
            parent[node] = rng.choice(predecessors)
            continue
        sizes = [pred_size[p] for p in predecessors]
        best = max(sizes) if policy == "alg1" else min(sizes)
        parent[node] = predecessors[sizes.index(best)]
        mask = 0
        for p in predecessors:
            mask |= pred_mask[p] | (1 << p)
        pred_mask[node] = mask
        pred_size[node] = mask.bit_count()
    return parent


def cover_from_parents(order: List[Node], parent: List[int],
                       policy: str) -> TreeCover:
    """The labelled :class:`TreeCover` of a :func:`tree_parents` array
    over the topological ``order`` of the graph's nodes."""
    parent_of: Dict[Node, Node] = {}
    children: Dict[Node, List[Node]] = {VIRTUAL_ROOT: []}
    for node, up in zip(order, parent):
        chosen = VIRTUAL_ROOT if up < 0 else order[up]
        parent_of[node] = chosen
        # Positions ascend, so every child list is in topological order.
        children[chosen].append(node)
        children[node] = []
    return TreeCover(parent=parent_of, children=children, order=order,
                     policy=policy)


def build_tree_cover(
    graph: DiGraph,
    policy: str = "alg1",
    *,
    rng: Union[random.Random, int, None] = None,
) -> TreeCover:
    """Construct a tree cover of ``graph`` under the given ``policy``.

    ``"alg1"`` implements the paper's optimal algorithm.  The alternatives
    (``"first_parent"``, ``"last_parent"``, ``"random"``, ``"min_pred"``)
    pick a different incoming arc per node and exist to quantify how much
    Alg1's choice matters (see ``benchmarks/bench_tree_cover_ablation.py``).

    An adapter: the graph's nodes become integer ids, :func:`tree_parents`
    chooses on them, and the result comes back labelled.
    """
    from repro.core.frozen import _numpy
    from repro.graph.io import EdgeList
    check_policy(policy)
    np = _numpy()
    edges = EdgeList.from_graph(graph)
    order, src, dst = topological_arcs(np, edges, graph)
    parent = tree_parents(np, edges.num_nodes, src, dst, policy, rng=rng)
    return cover_from_parents(list(map(edges.labels.__getitem__, order)),
                              parent, policy)


def all_tree_covers(graph: DiGraph) -> Iterator[TreeCover]:
    """Enumerate every possible tree cover of ``graph``.

    A tree cover fixes, independently for every node, which incoming arc is
    the tree arc; the number of covers is the product of the in-degrees.
    Only practical for small graphs — this is the brute-force oracle the
    Theorem 1 tests compare Alg1 against.
    """
    order = topological_order(graph)
    index_in_order = {node: position for position, node in enumerate(order)}
    choice_lists = [sorted(map(index_in_order.__getitem__,
                               graph.predecessors(node))) or [-1]
                    for node in order]
    for parent in itertools.product(*choice_lists):
        yield cover_from_parents(list(order), parent, "enumerated")
