"""Incremental maintenance of the compressed closure (Section 4).

The paper's update algorithms avoid recomputing the whole closure:

* **Adding a tree arc** (a brand-new node under an existing parent) costs
  O(log n): gaps deliberately left in the postorder numbering supply a free
  number inside the parent's tree interval, so *no existing label changes*.
* **Adding a non-tree arc** ``(i, j)`` propagates ``j``'s intervals to
  ``i`` and up ``i``'s immediate-predecessor lists, stopping at any node
  where every propagated interval is already subsumed — the paper's
  cut-off, which makes "hierarchy refinement" insertions effectively
  constant-time.
* **Running out of numbers** renumbers the whole tree cover in one
  O(n + closure) pass at a widened stride (:func:`renumber`), where the
  paper shifts numbers up to the first hole; fractional numbering (the
  Section 4 footnote) never runs out.
* **Deleting a tree arc** re-hangs the orphaned subtree under the virtual
  root with fresh numbers beyond the current maximum, then recomputes the
  non-tree intervals in one reverse-topological pass.  The paper instead
  patches old numbers to new in place; both are O(n + closure) in the
  worst case, and the recompute is immune to representation drift.
* **Deleting a non-tree arc** keeps the spanning tree and numbering and
  recomputes non-tree intervals in one reverse-topological pass — exactly
  the paper's procedure.  Every recompute runs the build's propagation
  kernel (:func:`repro.core.propagation.propagate_tree_intervals`), so a
  deletion costs about as much as the propagation step of a build.

Free-number bookkeeping relies on the laminar-family property of tree
intervals: the numbers available under a parent are its tree interval
minus its own number and minus the children's tree intervals; no other
live interval can intersect that residue (see
:func:`repro.core.labeling.check_laminar`).

All functions here take the :class:`~repro.core.index.IntervalTCIndex` as
their first argument; the index exposes them as methods.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.core.intervals import Interval, IntervalSet
from repro.core.labeling import assign_postorder, merge_all, postorder_walk
from repro.core.propagation import propagate_tree_intervals
from repro.core.tree_cover import VIRTUAL_ROOT
from repro.errors import (
    ArcNotFoundError,
    CycleError,
    GraphError,
    IndexStateError,
    NodeNotFoundError,
    NumberingExhaustedError,
)
from repro.graph.digraph import Node
from repro.graph.traversal import topological_order

if TYPE_CHECKING:  # pragma: no cover - import for type checkers only
    from repro.core.index import IntervalTCIndex

#: Why fractional numbering refuses a gap below 2, at build and renumber.
FRACTIONAL_GAP = ("fractional numbering needs gap >= 2 so every tree "
                  "interval has positive width to subdivide")


# ----------------------------------------------------------------------
# free-number bookkeeping
# ----------------------------------------------------------------------
def free_ranges_under(index: "IntervalTCIndex", parent: Node) -> List[Tuple[int, int]]:
    """Number ranges available for a new tree child of ``parent``.

    For a real parent: its tree interval, minus its own postorder number,
    minus the tree intervals of its current tree children.  For the
    virtual root the supply is unbounded; a synthetic range above the
    current maximum is returned.
    """
    if parent is VIRTUAL_ROOT:
        top = index.used_numbers[-1] if index.used_numbers else 0
        return [(top + 1, top + index.gap)]
    lo, number = index.tree_interval[parent]
    ranges: List[Tuple[int, int]] = []
    cursor = lo
    children = sorted(index.cover.tree_children(parent),
                      key=lambda child: index.tree_interval[child].lo)
    for child in children:
        child_lo, child_hi = index.tree_interval[child]
        if cursor <= child_lo - 1:
            ranges.append((cursor, child_lo - 1))
        cursor = max(cursor, child_hi + 1)
    if cursor <= number - 1:
        ranges.append((cursor, number - 1))
    return ranges


def claim_slot(index: "IntervalTCIndex", parent: Node) -> Tuple[int, Interval]:
    """Pick a postorder number and tree interval for a new child of ``parent``.

    Implements Section 4.1's "find the two postorder numbers ... that have
    the largest difference": the widest free range is selected, the new
    number is its midpoint, and the range below the number is reserved as
    the new node's tree interval (room for its own future descendants).

    Raises :class:`NumberingExhaustedError` when ``parent`` has no free
    numbers left (integer numbering only — fractional numbering always
    finds a slot, see :func:`claim_slot_fractional`).
    """
    if index.numbering == "fractional":
        return claim_slot_fractional(index, parent)
    ranges = free_ranges_under(index, parent)
    if not ranges:
        raise NumberingExhaustedError(
            f"no free postorder numbers under {parent!r}; renumber and retry"
        )
    lo, hi = max(ranges, key=lambda bounds: bounds[1] - bounds[0])
    number = (lo + hi + 1) // 2
    return number, Interval(lo, number)


def claim_slot_fractional(index: "IntervalTCIndex", parent: Node) -> Tuple[object, Interval]:
    """Continuous-numbering slot choice — the paper's footnote alternative.

    "Instead, one could use real numbers" (Section 4, footnote): with
    rational postorder numbers there is always an open gap under any
    parent, so insertion never triggers renumbering.  The widest open gap
    ``(a, b)`` between the parent's children (or the gap trailing up to
    the parent's own number) is selected; the new node is numbered at its
    midpoint and reserves the lower half of the remaining space as its
    tree interval.
    """
    from fractions import Fraction

    if parent is VIRTUAL_ROOT:
        top = index.used_numbers[-1] if index.used_numbers else 0
        lo = Fraction(top) + Fraction(1, 2)
        number = Fraction(top + index.gap)
        return number, Interval(lo, number)
    parent_lo, parent_number = index.tree_interval[parent]
    children = sorted(index.cover.tree_children(parent),
                      key=lambda child: index.tree_interval[child].lo)
    gaps = []
    cursor = Fraction(parent_lo)
    for child in children:
        child_lo, child_hi = index.tree_interval[child]
        if child_lo > cursor:
            gaps.append((cursor, Fraction(child_lo)))
        cursor = max(cursor, Fraction(child_hi))
    gaps.append((cursor, Fraction(parent_number)))
    a, b = max(gaps, key=lambda gap: gap[1] - gap[0])
    if b <= a:  # a zero-width leaf: gap >= 2 (enforced) rules it out
        raise NumberingExhaustedError(f"no continuous gap under {parent!r}")
    number = (a + b) / 2
    lo = (a + number) / 2
    return number, Interval(lo, number)


# ----------------------------------------------------------------------
# additions (Section 4.1)
# ----------------------------------------------------------------------
def add_node(index: "IntervalTCIndex", node: Node, parents: Sequence[Node] = ()) -> None:
    """Insert ``node`` with an arc from each parent (first parent = tree arc)."""
    if node in index.postorder:
        raise IndexStateError(f"node {node!r} is already indexed")
    parents = list(parents)
    if len(set(parents)) != len(parents):
        raise GraphError(f"duplicate parents in {parents!r}")
    for parent in parents:
        if parent not in index.postorder:
            raise NodeNotFoundError(parent)

    tree_parent: Node = parents[0] if parents else VIRTUAL_ROOT
    try:
        number, interval = claim_slot(index, tree_parent)
    except NumberingExhaustedError:
        if not index.auto_renumber:
            raise
        # Global renumbering at stride 1 reopens no gaps, so widen to at
        # least 2; the new stride sticks, keeping later insertions cheap.
        renumber(index, gap=max(index.gap, 2))
        number, interval = claim_slot(index, tree_parent)

    index._invalidate()
    index.graph.add_node(node)
    if tree_parent is not VIRTUAL_ROOT:
        index.graph.add_arc(tree_parent, node)
    index.cover.parent[node] = tree_parent
    index.cover.children.setdefault(node, [])
    index.cover.children.setdefault(tree_parent, []).append(node)

    index.postorder[node] = number
    index.tree_interval[node] = interval
    index.intervals[node] = IntervalSet([interval])
    index.node_of_number[number] = node
    insort(index.used_numbers, number)

    # The new number lies inside the tree intervals of every tree ancestor
    # (and of every interval that subsumed them), so no other label changes:
    # this is the paper's O(1) tree-arc addition.  Remaining parents are
    # ordinary non-tree arcs.
    for parent in parents[1:]:
        add_non_tree_arc(index, parent, node)


def add_non_tree_arc(index: "IntervalTCIndex", source: Node, destination: Node) -> None:
    """Insert an arc between two existing nodes and propagate intervals.

    ``destination``'s intervals are added to ``source`` and then pushed up
    the immediate-predecessor lists; propagation stops at nodes where
    nothing new survives subsumption (Section 4.1's optimisation, which is
    also what makes "hierarchy refinement" additions constant-time: the
    predecessors of a refined node already subsume everything below it).

    Raises :class:`CycleError` if the arc would close a directed cycle.
    """
    if source not in index.postorder:
        raise NodeNotFoundError(source)
    if destination not in index.postorder:
        raise NodeNotFoundError(destination)
    if source == destination:
        raise GraphError(f"self-loop ({source!r}, {source!r}) is not allowed")
    if index.graph.has_arc(source, destination):
        return
    if index.reachable(destination, source):
        raise CycleError(
            f"arc ({source!r}, {destination!r}) would create a cycle: "
            f"{destination!r} already reaches {source!r}"
        )
    index._invalidate()
    index.graph.add_arc(source, destination)

    cutoffs = 0
    queue = deque([(source, list(index.intervals[destination]))])
    while queue:
        node, incoming = queue.popleft()
        surviving = [interval for interval in incoming
                     if index.intervals[node].add(interval)]
        if surviving:
            for predecessor in index.graph.predecessors(node):
                queue.append((predecessor, surviving))
        else:
            cutoffs += 1
    tracer = getattr(index, "_tracer", None)
    if tracer is not None:
        tracer.annotate("cutoffs", cutoffs)
    obs = getattr(index, "_obs", None)
    if obs is not None and cutoffs:
        obs.counter("tc_subsumption_cutoffs_total",
                    help="propagations stopped by subsumption "
                         "(Section 4.1)").inc(cutoffs)


# ----------------------------------------------------------------------
# deletions (Section 4.2)
# ----------------------------------------------------------------------
def delete_non_tree_arc(index: "IntervalTCIndex", source: Node, destination: Node,
                        *, recompute: bool = True) -> None:
    """Remove a non-tree arc: spanning tree and numbering are untouched.

    Exactly the paper's procedure: one reverse-topological pass, the
    build's propagation kernel, recomputes every node's non-tree intervals
    from the (unchanged) tree intervals, so a deletion costs O(n +
    closure).  ``recompute=False`` defers that pass — the caller (batch
    updates) must run :func:`recompute_non_tree_intervals` before serving
    queries.
    """
    if index.cover.is_tree_arc(source, destination):
        raise IndexStateError(
            f"({source!r}, {destination!r}) is a tree arc; use delete_tree_arc"
        )
    index._invalidate()
    index.graph.remove_arc(source, destination)
    if recompute:
        recompute_non_tree_intervals(index)


def delete_tree_arc(index: "IntervalTCIndex", source: Node, destination: Node,
                    *, recompute: bool = True) -> None:
    """Remove a tree arc: re-hang the orphan subtree, renumber it, recompute.

    The subtree rooted at ``destination`` becomes a child of the virtual
    root; its nodes get fresh postorder numbers *above* the current maximum
    (the paper's rule), so labels outside the subtree never collide with
    the new ones, and the vacated number range becomes reusable free space
    under the old ancestors.  ``recompute=False`` defers the interval
    recomputation as in :func:`delete_non_tree_arc`.
    """
    if not index.cover.is_tree_arc(source, destination):
        raise ArcNotFoundError(source, destination)
    index._invalidate()
    index.graph.remove_arc(source, destination)
    detach_subtree(index, destination)
    if recompute:
        recompute_non_tree_intervals(index)


def detach_subtree(index: "IntervalTCIndex", root: Node) -> None:
    """Re-hang the tree subtree rooted at ``root`` under the virtual root.

    Renumbers the subtree with numbers greater than the current maximum
    (preserving its internal postorder shape) and refreshes its tree
    intervals.  Does *not* recompute non-tree intervals — callers do that
    once after all structural edits.
    """
    old_parent = index.cover.parent[root]
    if old_parent is VIRTUAL_ROOT:
        return
    index.cover.children[old_parent].remove(root)
    index.cover.parent[root] = VIRTUAL_ROOT
    index.cover.children[VIRTUAL_ROOT].append(root)

    base = index.used_numbers[-1] if index.used_numbers else 0
    gap = index.gap
    visits, entries = postorder_walk(index.cover, root)
    for counter, (node, entry) in enumerate(zip(visits, entries), 1):
        number = base + counter * gap
        del index.node_of_number[index.postorder[node]]
        index.postorder[node] = number
        index.tree_interval[node] = Interval(base + entry * gap + 1, number)
        index.node_of_number[number] = node
    index.used_numbers = sorted(index.node_of_number)


def remove_node(index: "IntervalTCIndex", node: Node, *,
                recompute: bool = True) -> None:
    """Delete ``node`` and every incident arc.

    Each tree child's subtree is detached (one renumbering each), the
    node's arcs and labels are retired, and a single reverse-topological
    pass refreshes the non-tree intervals (deferrable via
    ``recompute=False`` for batch streams).
    """
    if node not in index.postorder:
        raise NodeNotFoundError(node)
    index._invalidate()
    for child in list(index.cover.tree_children(node)):
        index.graph.remove_arc(node, child)
        detach_subtree(index, child)
    index.graph.remove_node(node)  # and every remaining incident arc

    tree_parent = index.cover.parent.pop(node)
    index.cover.children[tree_parent].remove(node)
    del index.cover.children[node]

    number = index.postorder.pop(node)
    del index.node_of_number[number]
    index.used_numbers.remove(number)
    del index.tree_interval[node]
    del index.intervals[node]

    if recompute:
        recompute_non_tree_intervals(index)


# ----------------------------------------------------------------------
# recomputation helpers
# ----------------------------------------------------------------------
def recompute_non_tree_intervals(index: "IntervalTCIndex") -> None:
    """Rebuild every node's interval set from the current tree intervals.

    The paper's non-tree deletion procedure, run by the build's kernel
    over the graph's current topological order (``cover.order`` is not
    maintained under updates).  A merged index is merged after the pass;
    over integer numbers that equals merging during it, since a merged
    set is the maximal runs of the numbers it covers.
    """
    index._invalidate()
    propagate_tree_intervals(index.graph, topological_order(index.graph),
                             index.tree_interval, index.intervals)
    if index.merged:
        merge_all(index)


def renumber(index: "IntervalTCIndex", gap: Optional[int] = None) -> None:
    """Assign fresh postorder numbers over the current tree cover.

    Restores full insertion headroom (every node regains its reserved
    gap).  Tree-cover shape is preserved, so this is O(n) numbering plus
    one closure propagation — much cheaper than a rebuild, though only a
    rebuild restores Alg1 optimality after many updates.  Under
    fractional numbering a gap below 2 raises ``IndexStateError`` before
    any state changes, as the constructor does: it would leave zero-width
    leaf intervals with nothing to subdivide.
    """
    stride = index.gap if gap is None else gap
    labeling = assign_postorder(index.cover, stride)  # rejects gap < 1
    if index.numbering == "fractional" and stride < 2:
        raise IndexStateError(FRACTIONAL_GAP)
    index.gap = stride
    index._invalidate()
    index._renumber_count = getattr(index, "_renumber_count", 0) + 1
    index.postorder = labeling.postorder
    index.tree_interval = labeling.tree_interval
    index.node_of_number = labeling.node_of_number
    index.used_numbers = sorted(index.node_of_number)
    recompute_non_tree_intervals(index)
