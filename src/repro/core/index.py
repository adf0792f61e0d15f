"""The compressed transitive-closure index — the paper's headline artifact.

:class:`IntervalTCIndex` materialises the transitive closure of a DAG as
per-node interval sets over a postorder numbering of an (optimal) tree
cover.  A reachability query is a binary search in the source node's
interval set; enumerating all successors of a node walks its intervals over
the sorted list of live postorder numbers.

The index is *updatable*: the Section 4 algorithms (implemented in
:mod:`repro.core.updates`) insert and delete nodes and arcs without
recomputing the closure, exploiting gaps left in the numbering.

Typical use::

    from repro import DiGraph, IntervalTCIndex

    g = DiGraph([("a", "b"), ("b", "c"), ("a", "d")])
    index = IntervalTCIndex.build(g)
    index.reachable("a", "c")        # True -- one range comparison
    sorted(index.successors("a"))    # ['a', 'b', 'c', 'd']
    index.add_node("e", parents=["d"])   # incremental, no rebuild
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, Union)

from repro.core import updates as _updates
from repro.core.engine import EngineBase, EngineCapabilities
from repro.core.intervals import Interval, IntervalSet
from repro.core.labeling import Labeling, label_graph, merge_all
from repro.core.tree_cover import TreeCover, build_tree_cover
from repro.errors import IndexStateError, NodeNotFoundError
from repro.graph.digraph import DiGraph, Node
from repro.graph.traversal import reachable_from
from repro.obs.instrument import instrumented

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.frozen import FrozenTCIndex

#: Default numbering stride: each node reserves ``DEFAULT_GAP - 1`` spare
#: postorder numbers for future insertions below it (Section 4).
DEFAULT_GAP = 32


def build_cover(graph: DiGraph, policy: str = "alg1", *,
                merge_ordering: bool = False,
                rng: Union[random.Random, int, None] = None) -> TreeCover:
    """The tree cover a build numbers: ``policy``'s cover, its tree
    siblings reordered for merging when ``merge_ordering`` is set."""
    cover = build_tree_cover(graph, policy, rng=rng)
    if merge_ordering:
        from repro.core.merge_ordering import order_children_for_merging
        order_children_for_merging(graph, cover)
    return cover


#: Merged ``[a, h]`` + ``[h+1, b]`` = ``[a, b]`` covers the seam ``(h, h+1)``.
_FRACTIONAL_MERGE = ("interval merging needs integer numbering: fractional "
                    "inserts land between merged neighbours")


@dataclass(frozen=True)
class IndexStats:
    """Size accounting for one index, in the paper's storage units."""

    num_nodes: int
    num_arcs: int
    num_tree_arcs: int
    num_intervals: int
    num_tree_intervals: int
    num_non_tree_intervals: int
    storage_units: int
    policy: str
    gap: int
    merged: bool
    max_intervals_per_node: int = 0
    tree_depth: int = 0
    numbering: str = "integer"
    #: Free postorder numbers below the current maximum (Section 4's
    #: insertion headroom); -1 means unlimited (fractional numbering).
    gap_budget_remaining: int = 0
    #: Full renumbering passes this index has performed.
    renumber_count: int = 0

    def as_dict(self) -> dict:
        """Plain-dict view for report tables."""
        return dict(self.__dict__)


class IntervalTCIndex(EngineBase):
    """Compressed transitive closure with interval labels.

    Build with :meth:`build`; query with :meth:`reachable`,
    :meth:`successors`, :meth:`predecessors`; update with
    :meth:`add_node`, :meth:`add_arc`, :meth:`remove_arc`,
    :meth:`remove_node`.

    The index owns a reference to the graph it was built from and keeps it
    in sync when updated through the index API.  Mutating the graph behind
    the index's back leaves the index stale — rebuild in that case.
    """

    def __init__(self, graph: DiGraph, cover: TreeCover, labeling: Labeling, *,
                 policy: str = "alg1", merged: bool = False,
                 auto_renumber: bool = True,
                 numbering: str = "integer") -> None:
        if numbering not in ("integer", "fractional"):
            raise IndexStateError(
                f"numbering must be 'integer' or 'fractional', got {numbering!r}")
        if numbering == "fractional" and labeling.gap < 2:
            raise IndexStateError(_updates.FRACTIONAL_GAP)
        if numbering == "fractional" and merged:
            raise IndexStateError(_FRACTIONAL_MERGE)
        self.graph = graph
        self.cover = cover
        self.gap = labeling.gap
        self.policy = policy
        self.merged = merged
        self.auto_renumber = auto_renumber
        #: ``"integer"`` (the paper's main scheme) or ``"fractional"`` —
        #: rational postorder numbers per the Section 4 footnote ("one
        #: could use real numbers"), under which insertion never exhausts.
        self.numbering = numbering
        self.postorder: Dict[Node, int] = labeling.postorder
        self.tree_interval: Dict[Node, Interval] = labeling.tree_interval
        self.intervals: Dict[Node, IntervalSet] = labeling.intervals
        self.node_of_number: Dict[int, Node] = labeling.node_of_number
        #: Sorted list L of postorder numbers currently in use (Section 4).
        self.used_numbers: List[int] = sorted(self.node_of_number)
        #: Monotone update counter; frozen views compare against it to
        #: detect staleness (see :meth:`freeze`).
        self._version = 0
        self._frozen_cache: Optional["FrozenTCIndex"] = None
        #: Optional write-ahead journal sink.  When set, every public
        #: mutation that actually changed the index appends its operation
        #: (``["add_arc", source, destination]``-style lists) via
        #: ``journal.append(op)`` *after* succeeding in memory — see
        #: :class:`repro.durability.wal.WalWriter`.  ``None`` costs one
        #: attribute test per mutation.
        self.journal = None
        #: Full renumbering passes (:func:`repro.core.updates.renumber`).
        self._renumber_count = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, graph: DiGraph, *, policy: str = "alg1", gap: int = DEFAULT_GAP,
              merge: bool = False, merge_ordering: bool = False,
              auto_renumber: bool = True, numbering: str = "integer",
              rng: Union[random.Random, int, None] = None) -> "IntervalTCIndex":
        """Compute the compressed closure of an acyclic ``graph``.

        ``policy`` selects the tree cover (``"alg1"`` is the paper's
        optimum); ``gap`` the numbering stride (1 reproduces the paper's
        figures exactly, larger values leave room for incremental
        insertion); ``merge=True`` applies the optional adjacent-interval
        merging pass, and ``merge_ordering=True`` additionally reorders
        tree siblings by the affinity heuristic so more intervals abut
        (see :mod:`repro.core.merge_ordering` — the paper leaves the
        optimal ordering open as "a combinatorial problem").
        Intervals propagate through the kernel of
        :mod:`repro.core.propagation`.  Raises
        :class:`repro.errors.CycleError` on cyclic input — wrap cyclic
        graphs with :class:`repro.core.condensation.CondensedIndex`
        instead.

        The index takes ownership of ``graph``: it keeps the object (no
        copy, which would add O(n + m) to every build) and mutates it on
        every update.  To build two indexes from one graph, pass
        ``graph.copy()`` to each; two indexes sharing a graph corrupt
        each other's updates.
        """
        cover = build_cover(graph, policy, merge_ordering=merge_ordering,
                            rng=rng)
        labeling = label_graph(graph, cover, gap, merge=merge)
        return cls(graph, cover, labeling, policy=policy, merged=merge,
                   auto_renumber=auto_renumber, numbering=numbering)

    @classmethod
    def from_arcs(cls, arcs: Iterable[tuple], **kwargs) -> "IntervalTCIndex":
        """Build directly from an iterable of ``(source, destination)`` pairs."""
        return cls.build(DiGraph(arcs), **kwargs)

    # ------------------------------------------------------------------
    # the frozen query engine
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Update counter: bumped by every mutation, read by frozen views."""
        return self._version

    @property
    def epoch(self) -> int:
        """Alias of :attr:`version` in snapshot terms.

        Every mutation advances the epoch by one; a frozen view captures
        the epoch at compile time, so ``frozen.lag()`` measures how far the
        source has moved on.  The delta-overlay engine
        (:class:`~repro.core.hybrid.HybridTCIndex`) relies on this to
        detect out-of-band mutations behind its back.
        """
        return self._version

    def _invalidate(self) -> None:
        """Record a mutation: advances the epoch, staling frozen views."""
        self._version += 1
        self._frozen_cache = None

    def _journal_op(self, op: list) -> None:
        if self.journal is not None:
            self.journal.append(op)

    def freeze(self, *, force: bool = False) -> "FrozenTCIndex":
        """Compile this index into a :class:`~repro.core.frozen.FrozenTCIndex`.

        The flat-array engine answers the same queries faster (and adds
        batch forms) but is a read-only snapshot: any update through this
        index stales it, after which its queries raise
        :class:`~repro.errors.IndexStateError` — update, then call
        :meth:`freeze` again.  The compiled view is cached while fresh, so
        repeated calls between updates are free; ``force=True``
        recompiles even when fresh.
        """
        from repro.core.frozen import FrozenTCIndex
        cached = self._frozen_cache
        if not force and cached is not None and not cached.is_stale():
            return cached
        frozen = FrozenTCIndex.from_index(self)
        self._frozen_cache = frozen
        return frozen

    def frozen_view(self) -> Optional["FrozenTCIndex"]:
        """The cached frozen view if one exists and is fresh, else ``None``.

        Query helpers use this to route through the fast engine without
        triggering a compile behind the caller's back.
        """
        cached = self._frozen_cache
        if cached is not None and not cached.is_stale():
            return cached
        return None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self.postorder

    def __len__(self) -> int:
        return len(self.postorder)

    def nodes(self) -> Iterator[Node]:
        """All indexed nodes."""
        return iter(self.postorder)

    @instrumented("reachable")
    def reachable(self, source: Node, destination: Node) -> bool:
        """Whether a directed path ``source ->* destination`` exists.

        Reflexive (paper Section 3.1): every node reaches itself.  This is
        the "single range comparison" query of Lemma 1 — O(log k) in the
        number of intervals at ``source``.
        """
        if source not in self.postorder:
            raise NodeNotFoundError(source)
        try:
            number = self.postorder[destination]
        except KeyError:
            raise NodeNotFoundError(destination) from None
        covered = self.intervals[source].covers(number)
        tracer = self._tracer
        if tracer is not None and tracer.current() is not None:
            # Lemma 1 explanation: the destination's number is inside the
            # source's own subtree interval (a tree hit), inside an
            # interval propagated from a non-tree arc, or nowhere.
            if not covered:
                kind = "miss"
            else:
                tree = self.tree_interval[source]
                kind = ("tree-interval" if tree.lo <= number <= tree.hi
                        else "propagated-interval")
            tracer.annotate("hit", kind)
        return covered

    @instrumented("successors")
    def successors(self, source: Node, *, reflexive: bool = True) -> Set[Node]:
        """The full successor list of ``source``, decoded from its intervals.

        Walks each interval over the sorted live-number list, so the cost
        is O(answer + k log n) rather than a graph traversal.
        """
        if source not in self.postorder:
            raise NodeNotFoundError(source)
        result: Set[Node] = set()
        numbers = self.used_numbers
        for lo, hi in self.intervals[source]:
            start = bisect_left(numbers, lo)
            stop = bisect_right(numbers, hi)
            for position in range(start, stop):
                result.add(self.node_of_number[numbers[position]])
        if not reflexive:
            result.discard(source)
        return result

    def iter_successors(self, source: Node, *,
                        reflexive: bool = True) -> Iterator[Node]:
        """Lazily yield the successors of ``source`` in postorder-number order.

        Duplicate-free even when intervals overlap (merged indexes), and
        O(1) memory beyond the iterator — use for early-exit scans over
        potentially huge successor sets.
        """
        if source not in self.postorder:
            raise NodeNotFoundError(source)
        numbers = self.used_numbers
        previous_hi: Optional[int] = None
        for lo, hi in self.intervals[source]:
            if previous_hi is not None and lo <= previous_hi:
                lo = previous_hi + 1
            if lo > hi:
                previous_hi = max(previous_hi, hi) if previous_hi is not None else hi
                continue
            start = bisect_left(numbers, lo)
            stop = bisect_right(numbers, hi)
            for position in range(start, stop):
                node = self.node_of_number[numbers[position]]
                if not reflexive and node == source:
                    continue
                yield node
            previous_hi = hi if previous_hi is None else max(previous_hi, hi)

    @instrumented("predecessors")
    def predecessors(self, destination: Node, *, reflexive: bool = True) -> Set[Node]:
        """Every node that can reach ``destination``.

        The paper stores successor intervals only; predecessor queries scan
        all nodes (O(n log k)).  Build a second index on the reversed graph
        when predecessor queries dominate.
        """
        if destination not in self.postorder:
            raise NodeNotFoundError(destination)
        number = self.postorder[destination]
        result = {node for node, interval_set in self.intervals.items()
                  if interval_set.covers(number)}
        if not reflexive:
            result.discard(destination)
        return result

    @instrumented("count_successors")
    def count_successors(self, source: Node, *, reflexive: bool = True) -> int:
        """Number of successors without materialising the set."""
        if source not in self.postorder:
            raise NodeNotFoundError(source)
        numbers = self.used_numbers
        seen = 0
        previous_hi: Optional[int] = None
        for lo, hi in self.intervals[source]:
            if previous_hi is not None:
                lo = max(lo, previous_hi + 1)
            if lo <= hi:
                seen += bisect_right(numbers, hi) - bisect_left(numbers, lo)
            previous_hi = hi if previous_hi is None else max(previous_hi, hi)
        return seen if reflexive else seen - 1

    # ------------------------------------------------------------------
    # set semijoins with sorted-target sweeps (the batch forms and the
    # other semijoins come from EngineBase)
    # ------------------------------------------------------------------
    @instrumented("reaching_set")
    def reaching_set(self, destinations: Iterable[Node]) -> Set[Node]:
        """Everything that reaches *any* destination (reflexive).

        Target numbers are sorted once; each node then pays one
        early-exit bisect pass over its own intervals.
        """
        targets = sorted({self._number_of(destination)
                          for destination in destinations})
        if not targets:
            return set()
        result: Set[Node] = set()
        for node, interval_set in self.intervals.items():
            if self._covers_any(interval_set, targets):
                result.add(node)
        return result

    @instrumented("any_reachable")
    def any_reachable(self, sources: Iterable[Node],
                      destinations: Iterable[Node]) -> bool:
        """Does any source reach any destination?  Early-exit semijoin."""
        targets = sorted({self._number_of(destination)
                          for destination in destinations})
        if not targets:
            return False
        for source in sources:
            if source not in self.postorder:
                raise NodeNotFoundError(source)
            if self._covers_any(self.intervals[source], targets):
                return True
        return False

    def _number_of(self, node: Node) -> int:
        try:
            return self.postorder[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    @staticmethod
    def _covers_any(interval_set: IntervalSet,
                    targets: Sequence[int]) -> bool:
        """Whether any of the sorted ``targets`` lies inside the set."""
        for lo, hi in interval_set:
            position = bisect_left(targets, lo)
            if position < len(targets) and targets[position] <= hi:
                return True
        return False

    # ------------------------------------------------------------------
    # size accounting
    # ------------------------------------------------------------------
    @property
    def num_intervals(self) -> int:
        """Total intervals across all nodes (the Theorem 1 objective)."""
        return sum(len(interval_set) for interval_set in self.intervals.values())

    @property
    def storage_units(self) -> int:
        """Paper accounting: two end-points per interval (Section 3.3)."""
        return 2 * self.num_intervals

    @property
    def gap_budget_remaining(self) -> int:
        """Free postorder numbers below the current maximum.

        The Section 4 insertion headroom: how many more nodes fit before
        a gap exhaustion can force :meth:`renumber`.  ``-1`` means
        unlimited (fractional numbering never runs out).
        """
        if self.numbering == "fractional":
            return -1
        if not self.used_numbers:
            return 0
        return int(self.used_numbers[-1]) - len(self.used_numbers)

    @property
    def renumber_count(self) -> int:
        """Full renumbering passes this index has performed."""
        return self._renumber_count

    def capabilities(self) -> EngineCapabilities:
        """Updatable, loop-based batches, graph-carrying, in-memory."""
        return EngineCapabilities(
            kind="interval", supports_updates=True, supports_batch=False,
            is_frozen_snapshot=False, durable=False)

    def stats(self) -> IndexStats:
        """A full size report."""
        total = self.num_intervals
        tree = len(self.postorder)
        return IndexStats(
            num_nodes=self.graph.num_nodes,
            num_arcs=self.graph.num_arcs,
            num_tree_arcs=sum(1 for _ in self.cover.tree_arcs()),
            num_intervals=total,
            num_tree_intervals=tree,
            num_non_tree_intervals=total - tree,
            storage_units=2 * total,
            policy=self.policy,
            gap=self.gap,
            merged=self.merged,
            max_intervals_per_node=max(
                (len(interval_set) for interval_set in self.intervals.values()),
                default=0),
            tree_depth=self._tree_depth(),
            numbering=self.numbering,
            gap_budget_remaining=self.gap_budget_remaining,
            renumber_count=self._renumber_count,
        )

    def _tree_depth(self) -> int:
        """Deepest node of the spanning forest (virtual root at 0)."""
        from repro.core.tree_cover import VIRTUAL_ROOT
        depth = 0
        frontier = [(child, 1) for child in self.cover.tree_children(VIRTUAL_ROOT)]
        while frontier:
            node, level = frontier.pop()
            depth = max(depth, level)
            frontier.extend((child, level + 1)
                            for child in self.cover.tree_children(node))
        return depth

    # ------------------------------------------------------------------
    # incremental updates (Section 4) — implemented in repro.core.updates
    # ------------------------------------------------------------------
    @instrumented("add_node")
    def add_node(self, node: Node, parents: Sequence[Node] = ()) -> None:
        """Insert a new node with arcs from each of ``parents``.

        The first parent supplies the tree arc (O(1) thanks to numbering
        gaps); the rest become non-tree arcs with subsumption-cut-off
        propagation.  With no parents the node hangs off the virtual root.
        """
        _updates.add_node(self, node, parents)
        self._journal_op(["add_node", node, list(parents)])

    @instrumented("add_arc")
    def add_arc(self, source: Node, destination: Node) -> None:
        """Insert an arc between two existing nodes (non-tree arc addition)."""
        before = self._version
        _updates.add_non_tree_arc(self, source, destination)
        if self._version != before:
            self._journal_op(["add_arc", source, destination])

    @instrumented("remove_arc")
    def remove_arc(self, source: Node, destination: Node) -> None:
        """Delete an arc; dispatches to the tree/non-tree procedures of §4.2."""
        before = self._version
        if self.cover.is_tree_arc(source, destination):
            _updates.delete_tree_arc(self, source, destination)
        else:
            _updates.delete_non_tree_arc(self, source, destination)
        if self._version != before:
            self._journal_op(["remove_arc", source, destination])

    @instrumented("remove_node")
    def remove_node(self, node: Node) -> None:
        """Delete a node and all incident arcs."""
        before = self._version
        _updates.remove_node(self, node)
        if self._version != before:
            self._journal_op(["remove_node", node])

    def merge_intervals(self) -> None:
        """Apply Section 3.2's optional adjacent-interval coalescing.

        Replaces every node's interval set with its merged form and marks
        the index so later recomputations keep merging.  A mutation for
        staleness purposes: merged labels are a different representation,
        so frozen views must not survive it.
        """
        if self.numbering == "fractional":
            raise IndexStateError(_FRACTIONAL_MERGE)
        self._invalidate()
        merge_all(self)
        self.merged = True
        self._journal_op(["merge"])

    def renumber(self, gap: Optional[int] = None) -> None:
        """Re-assign postorder numbers over the current tree cover.

        Used when insertion gaps are exhausted (automatically if
        ``auto_renumber``), and available to callers who want to restore
        headroom after heavy update traffic.  Keeps the tree cover, so it
        is much cheaper than :meth:`rebuild`, but does not restore Alg1
        optimality lost to updates.
        """
        _updates.renumber(self, gap)
        self._journal_op(["renumber", self.gap])

    def rebuild(self, *, policy: Optional[str] = None,
                gap: Optional[int] = None) -> "IntervalTCIndex":
        """A fresh optimal index over the current graph.

        The paper (end of Section 4) notes that incremental updates do not
        preserve tree-cover optimality and suggests rebuilding "after
        sufficient update activity".
        """
        return IntervalTCIndex.build(
            self.graph,
            policy=policy if policy is not None else self.policy,
            gap=gap if gap is not None else self.gap,
            merge=self.merged,
            auto_renumber=self.auto_renumber,
            numbering=self.numbering,
        )

    # ------------------------------------------------------------------
    # verification (used extensively by the test suite)
    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Cross-check the index against pointer-chasing ground truth.

        O(n * closure) — meant for tests and post-update assertions, not
        production queries.  Raises :class:`IndexStateError` on the first
        discrepancy.
        """
        for source in self.graph:
            truth = reachable_from(self.graph, source)
            answer = self.successors(source)
            if truth != answer:
                missing = truth - answer
                extra = answer - truth
                raise IndexStateError(
                    f"closure mismatch at {source!r}: missing={sorted(map(repr, missing))} "
                    f"extra={sorted(map(repr, extra))}"
                )

    def check_invariants(self) -> None:
        """Validate structural invariants (interval sets, numbering maps)."""
        if set(self.postorder) != set(self.graph.nodes()):
            raise IndexStateError("postorder map does not cover the graph's nodes")
        if sorted(self.node_of_number) != self.used_numbers:
            raise IndexStateError("used_numbers is out of sync with node_of_number")
        if len(self.node_of_number) != len(self.postorder):
            raise IndexStateError("postorder numbers are not unique")
        for node, interval_set in self.intervals.items():
            interval_set.check_invariants()
            if not interval_set.covers(self.postorder[node]):
                raise IndexStateError(f"node {node!r} does not cover its own number")
        self.cover.check_spanning(self.graph)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"IntervalTCIndex(nodes={len(self.postorder)}, "
                f"intervals={self.num_intervals}, policy={self.policy!r}, gap={self.gap})")
