"""Delta-overlay hybrid engine: frozen-speed reads under live updates.

:class:`~repro.core.frozen.FrozenTCIndex` (PR 1) is the fastest query
engine in the repository, but it is a snapshot: the first mutation stales
it and a read-heavy workload with even a trickle of writes pays a full
O(n + intervals) re-compile per write burst.  The paper's own answer to
update traffic is Section 4 — interval labels survive insertion and
deletion through postorder-numbering gaps — which keeps the *mutable*
index correct in microseconds but leaves its per-query constant an order
of magnitude above the flat-array engine's.

:class:`HybridTCIndex` combines the two, LSM-style:

* a **pinned frozen base** (a :meth:`~repro.core.frozen.FrozenTCIndex.detach`-ed
  snapshot) serves the bulk of every answer at flat-array speed;
* a small **delta overlay** — the arcs and nodes added since the snapshot
  — corrects base answers through a bounded search that crosses only
  delta arcs, with memoised per-entry reachable sets;
* the **mutable index underneath is written through** on every mutation
  using the Section 4 gap-based algorithms, so it is always the ground
  truth and compaction never re-runs Alg1 or the propagation pass from
  scratch: folding the delta into a fresh base is one freeze of the
  already-updated index.

Additions are the cheap, common case: the overlay stays sound because
every base path still exists.  Deletions of *pre-snapshot* structure
cannot be corrected against the base (an interval cannot un-cover a
rank), so they **taint** the snapshot: queries fall back to the mutable
index — still exact, microsecond-fast — until the next compaction.
Deleting delta-only structure (an arc or node added since the snapshot)
simply edits the overlay and keeps the fast path.

The correction rule, for an untainted base with delta arcs
``{(a_i, b_i)}``:

    ``reach(u, v)``  iff  ``base(u, v)``  or  there is a delta arc
    ``(a, b)`` with ``base(u, a)`` and some ``t`` in ``D(b)`` with
    ``base(t, v)``

where ``base(x, y)`` is reflexive base-only reachability (new nodes reach
only themselves) and ``D(b)`` — the memoised *delta closure* of ``b`` —
is the set of delta-arc targets reachable from ``b``, including ``b``.
Splitting any path at the first delta arc it crosses shows the rule is
complete; soundness is immediate.  ``successors``, ``predecessors`` and
``reachable_many`` reuse the same decomposition, and the batch form keeps
the vectorised numpy route for the base portion of each batch.

Compaction policy: a cost threshold (``max_delta``, deletions weighted by
:data:`DEFAULT_DELETE_COST`) and a base-size ratio (``max_ratio``)
trigger compaction on the mutation that crosses them; :meth:`compact`
folds eagerly on demand.

Typical use::

    hybrid = HybridTCIndex.build(graph)
    hybrid.reachable("a", "c")            # flat-array speed
    hybrid.add_arc("c", "d")              # O(1) amortised: delta append
    hybrid.reachable("a", "d")            # True — corrected via the delta
    hybrid.compact()                      # fold; queries unchanged
"""

from __future__ import annotations

import random
import time as _time
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Sequence,
                    Set, Tuple, Union)

from repro.core.engine import EngineBase, EngineCapabilities
from repro.core.frozen import FrozenTCIndex
from repro.core.index import DEFAULT_GAP, IntervalTCIndex
from repro.errors import IndexStateError, NodeNotFoundError, ReproError
from repro.graph.digraph import DiGraph, Node
from repro.obs.instrument import instrumented

#: Default compaction threshold, in delta cost units (1 per added arc or
#: node, :data:`DEFAULT_DELETE_COST` per pre-snapshot deletion).
DEFAULT_MAX_DELTA = 64
#: Compact early when the overlay reaches this fraction of the base size,
#: so small indexes never carry proportionally huge deltas.
DEFAULT_MAX_RATIO = 0.25
#: Cost units charged for deleting pre-snapshot structure: a deletion
#: taints the base, so it should pull the next compaction much closer
#: than an addition does.
DEFAULT_DELETE_COST = 8


class HybridTCIndex(EngineBase):
    """Frozen base snapshot + mutable delta overlay + write-through truth.

    Build with :meth:`build` (or wrap an existing index with
    :meth:`from_index`); query with the shared engine surface
    (:meth:`reachable`, :meth:`successors`, :meth:`predecessors`, the
    batch and semijoin forms); update with :meth:`add_node`,
    :meth:`add_arc`, :meth:`remove_arc`, :meth:`remove_node`; fold with
    :meth:`compact`.
    """

    def __init__(self, index: IntervalTCIndex, *,
                 max_delta: int = DEFAULT_MAX_DELTA,
                 max_ratio: float = DEFAULT_MAX_RATIO) -> None:
        if max_delta < 1:
            raise ReproError(f"max_delta must be >= 1, got {max_delta}")
        if not max_ratio > 0:
            raise ReproError(f"max_ratio must be positive, got {max_ratio}")
        self._index = index
        self._max_delta = max_delta
        self._max_ratio = max_ratio
        self._compactions = 0
        self._base = self._compile()
        self._reset_delta()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, graph: DiGraph, *, policy: str = "alg1",
              gap: int = DEFAULT_GAP,
              max_delta: int = DEFAULT_MAX_DELTA,
              max_ratio: float = DEFAULT_MAX_RATIO,
              rng: Union[random.Random, int, None] = None,
              **index_kwargs) -> "HybridTCIndex":
        """Compute the compressed closure of ``graph`` and snapshot it.

        ``policy``/``gap`` and any extra keyword arguments configure the
        underlying :meth:`IntervalTCIndex.build`; the remaining keywords
        configure the overlay (see the class docstring).
        """
        index = IntervalTCIndex.build(graph, policy=policy, gap=gap, rng=rng,
                                      **index_kwargs)
        return cls(index, max_delta=max_delta, max_ratio=max_ratio)

    @classmethod
    def from_arcs(cls, arcs: Iterable[tuple], **kwargs) -> "HybridTCIndex":
        """Build directly from ``(source, destination)`` pairs."""
        return cls.build(DiGraph(arcs), **kwargs)

    @classmethod
    def from_index(cls, index: IntervalTCIndex, **kwargs) -> "HybridTCIndex":
        """Wrap an already-built index (snapshots it immediately)."""
        return cls(index, **kwargs)

    @classmethod
    def restore(cls, index: IntervalTCIndex, base: FrozenTCIndex, *,
                delta_arcs: Sequence[Tuple[Node, Node]],
                delta_nodes: Iterable[Node],
                delta_cost: int, tainted: bool,
                max_delta: int = DEFAULT_MAX_DELTA,
                max_ratio: float = DEFAULT_MAX_RATIO) -> "HybridTCIndex":
        """Adopt persisted state without recompiling the base snapshot.

        This is the warm-restart path used by
        :func:`repro.core.serialize.hybrid_from_dict`: ``index`` is the
        current (post-delta) truth, ``base`` the snapshot it was frozen
        from, and the delta log replays the difference between them.
        """
        self = cls.__new__(cls)
        self._index = index
        self._max_delta = max_delta
        self._max_ratio = max_ratio
        self._compactions = 0
        self._base = base.detach()
        self._reset_delta()
        self._delta_arcs = [(source, destination)
                            for source, destination in delta_arcs]
        self._delta_arc_set = set(self._delta_arcs)
        self._delta_nodes = set(delta_nodes)
        self._delta_cost = delta_cost
        self._tainted = tainted
        return self

    def _compile(self) -> FrozenTCIndex:
        # Deliberately not ``index.freeze()``: the cached view there must
        # stay strict (stale after one epoch), while the base must be
        # pinned.  Detaching a shared cache entry would leak never-stale
        # views to other callers.
        frozen = FrozenTCIndex.from_index(self._index).detach()
        # Every recompiled base inherits this hybrid's observability so
        # base lookups keep reporting after a compaction.
        frozen._obs = (self._obs.child("FrozenTCIndex")
                       if self._obs is not None else None)
        frozen._tracer = self._tracer
        return frozen

    def _reset_delta(self) -> None:
        self._delta_arcs: List[Tuple[Node, Node]] = []
        self._delta_arc_set: Set[Tuple[Node, Node]] = set()
        self._delta_nodes: Set[Node] = set()
        self._delta_cost = 0
        self._tainted = False
        self._expected_epoch = self._index.epoch
        #: entry -> frozenset of delta-arc targets reachable from it (D).
        self._delta_memo: Dict[Node, FrozenSet[Node]] = {}
        #: query source -> frozenset of delta entry targets (T).
        self._entry_memo: Dict[Node, FrozenSet[Node]] = {}
        #: (sorted base ranks of in-base delta-arc sources, their arc
        #: targets), built on first use after each mutation.
        self._arc_ranks = None

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    @property
    def delta_size(self) -> int:
        """Number of arcs currently in the overlay."""
        return len(self._delta_arcs)

    @property
    def delta_cost(self) -> int:
        """Accumulated mutation cost since the last compaction."""
        return self._delta_cost

    @property
    def tainted(self) -> bool:
        """Whether a pre-snapshot deletion forced mutable-index routing."""
        return self._tainted

    @property
    def compactions(self) -> int:
        """How many times the delta has been folded into a fresh base."""
        return self._compactions

    @property
    def index(self) -> IntervalTCIndex:
        """The write-through mutable index (always the ground truth)."""
        return self._index

    @property
    def journal(self):
        """The write-ahead journal sink, if any.

        Lives on the write-through index: every hybrid mutation funnels
        through it, so attaching the sink there logs exactly the
        acknowledged Section 4 op stream — overlay bookkeeping never
        reaches the log.
        """
        return self._index.journal

    @journal.setter
    def journal(self, sink) -> None:
        self._index.journal = sink

    @property
    def base(self) -> FrozenTCIndex:
        """The pinned frozen snapshot queries are served from."""
        return self._base

    @property
    def epoch(self) -> int:
        """How many distinct bases this hybrid has pinned.

        Counts publishes (base swaps), not mutations: a burst of writes
        folded by one :meth:`compact` advances the epoch once.  This is
        the number a serving layer can expose as "which snapshot
        answered you".
        """
        return self._compactions

    def snapshot(self) -> FrozenTCIndex:
        """An immutable engine for the *current* exact state.

        Folds any pending delta (one freeze, no closure recomputation)
        and returns the fresh pinned base — detached, so it stays valid
        and internally consistent no matter what is mutated afterwards.
        Callers may hand it to any number of readers without
        coordination; the next ``snapshot()`` after further writes
        returns a different object and never touches this one.
        """
        self.compact()
        return self._base

    @property
    def graph(self) -> DiGraph:
        """The live graph (owned by the write-through index)."""
        return self._index.graph

    @property
    def delta_arcs(self) -> Tuple[Tuple[Node, Node], ...]:
        """The overlay's arc log (insertion order)."""
        return tuple(self._delta_arcs)

    @property
    def delta_nodes(self) -> FrozenSet[Node]:
        """Nodes added since the snapshot."""
        return frozenset(self._delta_nodes)

    def _threshold(self) -> int:
        ratio_cap = int(self._max_ratio * max(len(self._base), 1))
        return max(1, min(self._max_delta, ratio_cap))

    def _over_threshold(self) -> bool:
        return self._delta_cost >= self._threshold()

    def compact(self) -> bool:
        """Fold the delta into a fresh frozen base; queries are unchanged.

        The underlying index already absorbed every mutation through the
        Section 4 gap-based algorithms, so compaction is a single freeze
        of current state — no Alg1 re-run, no from-scratch closure.
        Returns whether any folding happened (``False`` on an empty,
        untainted overlay).
        """
        if (not self._delta_arcs and not self._delta_nodes
                and not self._tainted
                and self._expected_epoch == self._index.epoch):
            return False
        obs = self._obs
        started = _time.perf_counter_ns() if obs is not None else 0
        self._base = self._compile()
        self._reset_delta()
        self._compactions += 1
        if obs is not None:
            obs.counter("tc_hybrid_compaction_total",
                        help="delta folds into a fresh base").inc()
            obs.histogram(
                "tc_hybrid_compaction_seconds",
                help="wall time folding the delta into a fresh base",
            ).observe_ns(_time.perf_counter_ns() - started)
        return True

    def _note_mutation(self, cost: int) -> None:
        self._delta_cost += cost
        self._expected_epoch = self._index.epoch
        self._delta_memo.clear()
        self._entry_memo.clear()
        self._arc_ranks = None
        if self._over_threshold():
            self.compact()

    # ------------------------------------------------------------------
    # mutations (write-through + delta log)
    # ------------------------------------------------------------------
    @instrumented("add_node")
    def add_node(self, node: Node, parents: Sequence[Node] = ()) -> None:
        """Insert a new node with arcs from each of ``parents``.

        Applied to the mutable index immediately (Section 4 insertion);
        the node and its incoming arcs join the overlay so the frozen
        base keeps serving.
        """
        parent_list = list(parents)
        self._index.add_node(node, parent_list)
        self._delta_nodes.add(node)
        for parent in parent_list:
            self._record_arc(parent, node)
        self._note_mutation(1 + len(parent_list))

    @instrumented("add_arc")
    def add_arc(self, source: Node, destination: Node) -> None:
        """Insert an arc between existing nodes; O(1) amortised overlay append."""
        before = self._index.epoch
        self._index.add_arc(source, destination)
        if self._index.epoch == before:
            return  # arc already present: the index did nothing
        self._record_arc(source, destination)
        self._note_mutation(1)

    def _record_arc(self, source: Node, destination: Node) -> None:
        arc = (source, destination)
        if arc not in self._delta_arc_set:
            self._delta_arc_set.add(arc)
            self._delta_arcs.append(arc)

    @instrumented("remove_arc")
    def remove_arc(self, source: Node, destination: Node) -> None:
        """Delete an arc.

        A delta arc (added since the snapshot) is simply dropped from the
        overlay — the base never knew it.  A pre-snapshot arc taints the
        base: queries route to the mutable index until compaction.
        """
        before = self._index.epoch
        self._index.remove_arc(source, destination)
        if self._index.epoch == before:
            return
        arc = (source, destination)
        if arc in self._delta_arc_set:
            self._delta_arc_set.discard(arc)
            self._delta_arcs.remove(arc)
            self._note_mutation(0)
        else:
            self._tainted = True
            self._note_mutation(DEFAULT_DELETE_COST)

    @instrumented("remove_node")
    def remove_node(self, node: Node) -> None:
        """Delete a node and all incident arcs (same taint rule as arcs).

        Every arc incident to a post-snapshot node is itself a delta arc,
        so removing a delta node just edits the overlay.
        """
        self._index.remove_node(node)
        if node in self._delta_nodes:
            self._delta_nodes.discard(node)
            kept = [(source, destination)
                    for source, destination in self._delta_arcs
                    if source != node and destination != node]
            self._delta_arcs = kept
            self._delta_arc_set = set(kept)
            self._note_mutation(0)
        else:
            self._tainted = True
            self._note_mutation(DEFAULT_DELETE_COST)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _sync(self) -> bool:
        """Pre-query bookkeeping; returns whether to route to the index.

        Detects out-of-band mutations (someone updated :attr:`index`
        directly: the epoch moved without the overlay seeing it) and
        taints — the delta log no longer tells the whole story, but the
        write-through index is still exact.
        """
        if self._index.epoch != self._expected_epoch:
            self._tainted = True
            self._expected_epoch = self._index.epoch
            self._delta_memo.clear()
            self._entry_memo.clear()
        return self._tainted

    def _require(self, node: Node) -> None:
        if node not in self._index.postorder:
            raise NodeNotFoundError(node)

    # ------------------------------------------------------------------
    # delta correction primitives
    # ------------------------------------------------------------------
    def _base_reach(self, source: Node, destination: Node) -> bool:
        """Reflexive base-only reachability; new nodes reach only themselves."""
        if source == destination:
            return True
        base = self._base
        if source in base and destination in base:
            return base.reachable(source, destination)
        return False

    def _base_succ(self, node: Node) -> Set[Node]:
        base = self._base
        if node in base:
            return base.successors(node)
        return {node}

    def _base_pred(self, node: Node) -> Set[Node]:
        base = self._base
        if node in base:
            return base.predecessors(node)
        return {node}

    def _delta_closure(self, entry: Node) -> FrozenSet[Node]:
        """D(entry): delta-arc targets reachable from ``entry`` (incl. itself)."""
        memo = self._delta_memo
        cached = memo.get(entry)
        if cached is not None:
            return cached
        closure = {entry}
        frontier = [entry]
        arcs = self._delta_arcs
        while frontier:
            node = frontier.pop()
            for arc_source, arc_target in arcs:
                if arc_target not in closure and self._base_reach(node,
                                                                  arc_source):
                    closure.add(arc_target)
                    frontier.append(arc_target)
        result = frozenset(closure)
        memo[entry] = result
        return result

    def _entry_targets(self, source: Node) -> FrozenSet[Node]:
        """T(source): union of D(b) over delta arcs (a, b) with base(source, a).

        Everything ``source`` gained from the overlay is base-reachable
        from some member of this set.  The result is memoised until the
        next mutation.
        """
        memo = self._entry_memo
        cached = memo.get(source)
        if cached is not None:
            return cached
        targets: Set[Node] = set()
        for arc_target in self._entered_arcs(source):
            targets |= self._delta_closure(arc_target)
        result = frozenset(targets)
        memo[source] = result
        return result

    def _entered_arcs(self, source: Node) -> List[Node]:
        """Targets ``b`` of the delta arcs ``(a, b)`` with ``base(source, a)``.

        The in-base arc sources are kept sorted by base rank until the
        next mutation, so an in-base source pays one bisect pair per run
        of its row instead of one base probe per delta arc.  (A row
        covers its own rank, so arcs leaving ``source`` are found too.)
        """
        base = self._base
        if source not in base:
            return [b for a, b in self._delta_arcs if a == source]
        if self._arc_ranks is None:
            keyed = sorted(((base._id(a), b) for a, b in self._delta_arcs
                            if a in base), key=itemgetter(0))
            self._arc_ranks = ([rank for rank, _ in keyed],
                               [b for _, b in keyed])
        ranks, ends = self._arc_ranks
        entered: List[Node] = []
        for lo, hi in base._runs(source):
            entered += ends[bisect_left(ranks, lo):bisect_right(ranks, hi)]
        return entered

    # ------------------------------------------------------------------
    # point queries
    # ------------------------------------------------------------------
    @instrumented("reachable")
    def reachable(self, source: Node, destination: Node) -> bool:
        """Whether ``source`` reaches ``destination`` (reflexive).

        Untainted: one flat-array lookup, plus at most |T(source)| more
        when the overlay is non-empty.  Tainted: exact answer from the
        mutable index.
        """
        tracer = self._tracer
        in_span = tracer is not None and tracer.current() is not None
        if self._sync():
            if in_span:
                tracer.annotate("route", "index")
            return self._index.reachable(source, destination)
        if in_span:
            tracer.annotate("route", "base")
        self._require(source)
        self._require(destination)
        if self._base_reach(source, destination):
            return True
        if not self._delta_arcs:
            return False
        if in_span:
            tracer.annotate("overlay", True)
        for target in self._entry_targets(source):
            if self._base_reach(target, destination):
                return True
        return False

    @instrumented("successors")
    def successors(self, source: Node, *, reflexive: bool = True) -> Set[Node]:
        """All nodes reachable from ``source``: base slice walk + overlay union."""
        if self._sync():
            return self._index.successors(source, reflexive=reflexive)
        self._require(source)
        result = self._base_succ(source)
        if self._delta_arcs:
            for target in self._entry_targets(source):
                result |= self._base_succ(target)
        if not reflexive:
            result.discard(source)
        return result

    @instrumented("count_successors")
    def count_successors(self, source: Node, *, reflexive: bool = True) -> int:
        """Successor count; run-width arithmetic on the clean no-delta path."""
        if self._sync():
            return self._index.count_successors(source, reflexive=reflexive)
        if not self._delta_arcs and source in self._base:
            return self._base.count_successors(source, reflexive=reflexive)
        # The generic fallbacks call the EngineBase default unwrapped, so
        # one call still counts once under this engine's label.
        return EngineBase.count_successors.__wrapped__(
            self, source, reflexive=reflexive)

    @instrumented("predecessors")
    def predecessors(self, destination: Node, *,
                     reflexive: bool = True) -> Set[Node]:
        """Every node that reaches ``destination``.

        A delta arc ``(a, b)`` contributes the base predecessors of ``a``
        exactly when some member of D(b) base-reaches the destination —
        the same first-crossed-arc decomposition, read from the far end.
        """
        if self._sync():
            return self._index.predecessors(destination, reflexive=reflexive)
        self._require(destination)
        result = self._base_pred(destination)
        for arc_source, arc_target in self._delta_arcs:
            if any(self._base_reach(target, destination)
                   for target in self._delta_closure(arc_target)):
                result |= self._base_pred(arc_source)
        if not reflexive:
            result.discard(destination)
        return result

    # ------------------------------------------------------------------
    # batch queries
    # ------------------------------------------------------------------
    @instrumented("reachable_many")
    def reachable_many(self, pairs: Iterable[Tuple[Node, Node]]) -> List[bool]:
        """Batch :meth:`reachable`.

        The in-base portion of the batch runs through the frozen engine's
        vectorised path in one call; only pairs it answers ``False`` (or
        that involve post-snapshot nodes) take the pointwise delta
        correction.
        """
        pair_list = pairs if isinstance(pairs, list) else list(pairs)
        if self._sync():
            return self._index.reachable_many(pair_list)
        if not pair_list:
            return []
        base = self._base
        if not self._delta_arcs and not self._delta_nodes:
            return base.reachable_many(pair_list)
        results = [False] * len(pair_list)
        batch: List[Tuple[Node, Node]] = []
        slots: List[int] = []
        for position, (source, destination) in enumerate(pair_list):
            self._require(source)
            self._require(destination)
            if source == destination:
                results[position] = True
            elif source in base and destination in base:
                batch.append((source, destination))
                slots.append(position)
        if batch:
            for slot, hit in zip(slots, base.reachable_many(batch)):
                results[slot] = hit
        if self._delta_arcs:
            for position, (source, destination) in enumerate(pair_list):
                if results[position]:
                    continue
                for target in self._entry_targets(source):
                    if self._base_reach(target, destination):
                        results[position] = True
                        break
        return results

    # ------------------------------------------------------------------
    # set semijoins
    # ------------------------------------------------------------------
    @instrumented("reachable_from_set")
    def reachable_from_set(self, sources: Iterable[Node]) -> Set[Node]:
        """Everything reachable from *any* source (reflexive)."""
        source_list = list(sources)
        if self._sync():
            return self._index.reachable_from_set(source_list)
        base = self._base
        if not self._delta_arcs and all(source in base
                                        for source in source_list):
            return base.reachable_from_set(source_list)
        return EngineBase.reachable_from_set.__wrapped__(self, source_list)

    @instrumented("reaching_set")
    def reaching_set(self, destinations: Iterable[Node]) -> Set[Node]:
        """Everything that reaches *any* destination (reflexive)."""
        destination_list = list(destinations)
        if self._sync():
            return self._index.reaching_set(destination_list)
        base = self._base
        if not self._delta_arcs and all(destination in base
                                        for destination in destination_list):
            return base.reaching_set(destination_list)
        return EngineBase.reaching_set.__wrapped__(self, destination_list)

    @instrumented("any_reachable")
    def any_reachable(self, sources: Iterable[Node],
                      destinations: Iterable[Node]) -> bool:
        """Does any source reach any destination?  Early-exit semijoin."""
        destination_list = list(destinations)
        if self._sync():
            return self._index.any_reachable(sources, destination_list)
        base = self._base
        if not self._delta_arcs and all(destination in base
                                        for destination in destination_list):
            source_list = list(sources)
            if all(source in base for source in source_list):
                return base.any_reachable(source_list, destination_list)
            sources = source_list
        return EngineBase.any_reachable.__wrapped__(self, sources,
                                                    destination_list)

    @instrumented("are_disjoint")
    def are_disjoint(self, first: Node, second: Node) -> bool:
        """Whether the two nodes share no common descendant (reflexive)."""
        if self._sync():
            return self._index.are_disjoint(first, second)
        if (not self._delta_arcs
                and first in self._base and second in self._base):
            return self._base.are_disjoint(first, second)
        return EngineBase.are_disjoint.__wrapped__(self, first, second)

    # ------------------------------------------------------------------
    # membership and introspection
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._index.postorder

    def __len__(self) -> int:
        return len(self._index.postorder)

    def nodes(self) -> Iterator[Node]:
        """All indexed nodes (current state, overlay included)."""
        return self._index.nodes()

    def capabilities(self) -> EngineCapabilities:
        """Updatable with a vectorised frozen base for clean batches."""
        return EngineCapabilities(
            kind="hybrid", supports_updates=True, supports_batch=True,
            is_frozen_snapshot=False, durable=False)

    def stats(self) -> dict:
        """Overlay/compaction accounting plus the base engine's report."""
        return {
            "num_nodes": len(self),
            "delta_arcs": len(self._delta_arcs),
            "delta_nodes": len(self._delta_nodes),
            "delta_cost": self._delta_cost,
            "threshold": self._threshold(),
            "tainted": self._tainted,
            "compactions": self._compactions,
            "base": self._base.stats(),
        }

    def to_state(self) -> dict:
        """The persistent pieces (see :mod:`repro.core.serialize`)."""
        return {
            "delta_arcs": list(self._delta_arcs),
            "delta_nodes": sorted(self._delta_nodes, key=repr),
            "delta_cost": self._delta_cost,
            "tainted": self._tainted,
            "settings": {
                "max_delta": self._max_delta,
                "max_ratio": self._max_ratio,
            },
        }

    # ------------------------------------------------------------------
    # verification (tests and the fuzzer's audits)
    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Check the write-through index against the graph, then the
        overlay-corrected answers against the index.  O(n^2)-ish — for
        tests, not production."""
        self._index.verify()
        if self._sync():
            return  # tainted: queries already come straight from the index
        for node in self._index.nodes():
            expected = self._index.successors(node)
            actual = self.successors(node)
            if actual != expected:
                raise IndexStateError(
                    f"hybrid successors mismatch at {node!r}: "
                    f"missing={sorted(map(repr, expected - actual))} "
                    f"extra={sorted(map(repr, actual - expected))}")
            expected = self._index.predecessors(node)
            actual = self.predecessors(node)
            if actual != expected:
                raise IndexStateError(
                    f"hybrid predecessors mismatch at {node!r}: "
                    f"missing={sorted(map(repr, expected - actual))} "
                    f"extra={sorted(map(repr, actual - expected))}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"HybridTCIndex(nodes={len(self)}, "
                f"delta_arcs={len(self._delta_arcs)}, "
                f"cost={self._delta_cost}/{self._threshold()}, "
                f"compactions={self._compactions}"
                f"{', TAINTED' if self._tainted else ''})")
