"""Postorder numbering and interval propagation (Sections 3.1-3.2).

Given a tree cover, the compressed closure is produced in two passes:

1. **Numbering** — walk the spanning tree in postorder.  The ``k``-th node
   visited receives the postorder number ``k * gap``; its *tree interval*
   is ``[(k_first - 1) * gap + 1, k * gap]`` where ``k_first`` is the visit
   counter of the first node visited inside its subtree.  With ``gap = 1``
   this is exactly the paper's ``[lowest descendant postorder, own
   postorder]``; with a larger gap every leaf reserves the ``gap - 1``
   numbers directly below its own, which is the Section 4 trick that makes
   node insertion O(1) until the gaps fill up.

2. **Propagation** — visit the nodes of the *graph* in reverse topological
   order; at each node, add the interval sets of all its successors to its
   own, discarding subsumed intervals (Section 3.2).  The surviving
   non-tree intervals are characterised by Lemma 4.

Tree intervals form a laminar family (child intervals nest strictly inside
parent intervals, siblings are disjoint); the incremental update algorithms
rely on this, and the property tests assert it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import GraphError
from repro.core.intervals import Interval, IntervalSet
from repro.core.tree_cover import VIRTUAL_ROOT, TreeCover
from repro.graph.digraph import DiGraph, Node


@dataclass
class Labeling:
    """The complete label assignment of a compressed closure.

    ``postorder`` maps each node to its postorder number, ``tree_interval``
    to its tree interval, and ``intervals`` to its full interval set (tree
    interval plus surviving non-tree intervals).  ``gap`` records the
    numbering stride used.
    """

    postorder: Dict[Node, int]
    tree_interval: Dict[Node, Interval]
    intervals: Dict[Node, IntervalSet]
    gap: int = 1
    node_of_number: Dict[int, Node] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.node_of_number:
            self.node_of_number = {number: node for node, number in self.postorder.items()}

    @property
    def total_intervals(self) -> int:
        """Sum of interval-set cardinalities — the quantity Alg1 minimises."""
        return sum(len(interval_set) for interval_set in self.intervals.values())

    @property
    def storage_units(self) -> int:
        """Paper accounting: two end-points per interval (Section 3.3)."""
        return 2 * self.total_intervals


#: Exhausted-iterator sentinel for :func:`postorder_walk`.
_END = object()


def postorder_walk(cover: TreeCover) -> Tuple[List[Node], List[int]]:
    """Walk the spanning tree in postorder: the visit order and, per visit,
    the counter value before the node's subtree was entered.

    The ``k``-th visited node (``k`` from 1) gets number ``k * gap``; with
    ``entries[k - 1]`` the counter at its subtree's entry, its tree
    interval is ``[entries[k - 1] * gap + 1, k * gap]``.  In rank space
    (``gap = 1``, shifted to start at 0) that is ``[entries[k - 1], k - 1]``.
    The virtual root is walked but never visited.
    """
    visits: List[Node] = []
    entries: List[int] = []
    children = cover.children
    # Iterative walk tracking, for every node, the number of visits made
    # *before* its subtree was entered: the first node visited in the
    # subtree is visit entry+1, which fixes the interval lo.
    stack: List[tuple] = [(VIRTUAL_ROOT, iter(children.get(VIRTUAL_ROOT, ())), 0)]
    while stack:
        node, kids, counter_at_entry = stack[-1]
        child = next(kids, _END)
        if child is not _END:
            stack.append((child, iter(children.get(child, ())), len(visits)))
            continue
        stack.pop()
        if node is not VIRTUAL_ROOT:
            visits.append(node)
            entries.append(counter_at_entry)
    return visits, entries


def check_gap(gap: int) -> None:
    """Reject numbering strides below 1."""
    if gap < 1:
        raise GraphError(f"gap must be >= 1, got {gap}")


def assign_postorder(cover: TreeCover, gap: int = 1) -> Labeling:
    """Number the tree cover in postorder and compute tree intervals.

    The virtual root itself receives no number (the paper pins it at
    "+infinity"); its children are the roots of the forest and are numbered
    left to right in the deterministic child order of the cover.

    The returned :class:`Labeling` has interval sets holding only the tree
    intervals; run :func:`propagate_intervals` to add the non-tree ones.
    """
    check_gap(gap)
    visits, entries = postorder_walk(cover)
    postorder: Dict[Node, int] = {}
    tree_interval: Dict[Node, Interval] = {}
    for counter, (node, counter_at_entry) in enumerate(zip(visits, entries), 1):
        number = counter * gap
        postorder[node] = number
        tree_interval[node] = Interval(counter_at_entry * gap + 1, number)
    adopt = IntervalSet._adopt
    intervals = {node: adopt([span.lo], [span.hi])
                 for node, span in tree_interval.items()}
    return Labeling(postorder=postorder, tree_interval=tree_interval,
                    intervals=intervals, gap=gap)


def propagate_intervals(graph: DiGraph, cover: TreeCover, labeling: Labeling) -> None:
    """Second pass of Section 3.2: propagate intervals along all arcs.

    Visits the nodes of ``graph`` in reverse topological order (the
    cover retains the order it was built from) and, for every arc
    ``(p, q)``, adds all of ``q``'s intervals to ``p``'s set with
    subsumption elimination.  Tree children contribute nothing new — their
    tree intervals nest inside ``p``'s — so only non-tree arcs generate
    surviving intervals, exactly as Lemma 4 describes.

    Mutates ``labeling.intervals`` in place.  This is the paper's pass
    as written and the tests' reference; builds run the kernel of
    :mod:`repro.core.propagation`, which yields the identical labeling.
    """
    intervals = labeling.intervals
    for p in reversed(cover.order):
        own = intervals[p]
        for q in graph.successors(p):
            own.add_all(intervals[q])


def label_graph(graph: DiGraph, cover: TreeCover, gap: int = 1, *,
                merge: bool = False) -> Labeling:
    """Produce the full compressed-closure labeling for ``graph``.

    Convenience wrapper: postorder numbering, interval propagation (the
    kernel of :mod:`repro.core.propagation`), and (optionally) the
    adjacent/overlapping interval merging post-pass.
    """
    from repro.core.propagation import propagate_intervals_vectorized
    labeling = assign_postorder(cover, gap)
    propagate_intervals_vectorized(graph, cover, labeling)
    if merge:
        merge_all(labeling)
    return labeling


def merge_all(labeling: Labeling) -> int:
    """Apply interval merging to every node's set; return intervals saved."""
    saved = 0
    for node, interval_set in labeling.intervals.items():
        merged = interval_set.merged()
        saved += len(interval_set) - len(merged)
        labeling.intervals[node] = merged
    return saved


def check_laminar(labeling: Labeling) -> None:
    """Assert the laminar-family property of tree intervals (test helper).

    Any two tree intervals are either disjoint or strictly nested.  The
    incremental insertion algorithm assumes this when carving free number
    ranges out of a parent's interval.
    """
    spans = sorted(labeling.tree_interval.values(), key=lambda iv: (iv.lo, -iv.hi))
    enclosing: List[Interval] = []
    for interval in spans:
        while enclosing and enclosing[-1].hi < interval.lo:
            enclosing.pop()
        if enclosing and interval.hi > enclosing[-1].hi:
            raise GraphError(
                f"tree intervals {enclosing[-1]} and {interval} overlap without nesting"
            )
        enclosing.append(interval)
