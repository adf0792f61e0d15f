"""Frozen flat-array query engine over a built interval index.

:class:`~repro.core.index.IntervalTCIndex` answers queries out of one
Python ``IntervalSet`` object per node.  That representation is ideal for
the Section 4 incremental updates, but every query pays dict lookups,
attribute access, and per-object method dispatch — and predecessor-style
queries degrade to a scan over *all* nodes' interval sets.

:class:`FrozenTCIndex` is the read-optimised compilation of a built index
into contiguous CSR-style buffers, the layout hop-labeling reachability
oracles use for speed:

* nodes are interned to dense ids: id ``i`` is the node holding the
  ``i``-th smallest live postorder number, so the dense id *is* the rank
  of the node's number and the snapshot keeps no numbers at all: they
  exist so that Section 4's inserts find free slots, and a snapshot
  takes no inserts;
* every interval end-point is rewritten from postorder-number space to
  rank space at freeze time (a number interval ``[lo, hi]`` becomes the
  rank range of the live numbers it contains), after which per-row
  intervals are coalesced into disjoint, sorted runs, so the covered
  ranks *are* the successor set: ``successors`` and the set semijoins
  gather the rows' runs in one numpy pass and decode them into nodes
  (:meth:`FrozenTCIndex._gather`, :meth:`FrozenTCIndex._decode`);
* all rows live in three flat arrays — ``offsets`` (CSR row starts) plus
  ``lo``/``hi`` rank arrays — so ``reachable(u, v)`` is two label probes,
  two offset reads, one :func:`bisect.bisect_right` over the row and one
  ``hi`` read.  Scalar reads go through memoryviews of the arrays
  (:func:`_int_view`), which hand back Python ints: indexing the numpy
  arrays makes a numpy scalar per read, and bisecting over them costs
  about three times as much;
* a **reverse interval index** (every interval sorted by ``lo``, with a
  prefix-max-``hi`` sweep array) answers the stabbing query "which rows
  cover rank q" in O(log m + scanned) — ``predecessors``,
  ``reaching_set`` and ``are_disjoint`` no longer scan every node.

The buffers are numpy arrays, so the batch APIs (:meth:`reachable_many`,
…) run vectorised; :meth:`reachable_many` searches its keys in ascending
order, so each probe of the keyed buffer starts where the last one ended.

A frozen view is a snapshot: it keeps a reference to its source index and
the index's epoch counter at freeze time, and raises
:class:`~repro.errors.IndexStateError` from every query once the source
has been updated.  Updates go through the mutable index as before; call
:meth:`IntervalTCIndex.freeze` again afterwards (the result is cached
while fresh, so repeated ``freeze()`` calls are free).

Two levels of snapshot bookkeeping exist:

* **strict views** (the default, what :meth:`IntervalTCIndex.freeze`
  hands out) refuse to answer once :meth:`lag` is non-zero — one epoch
  behind is already stale;
* **pinned snapshots** (after :meth:`detach`) drop the source reference
  and keep serving the state they captured forever.  This is what the
  delta-overlay engine (:class:`~repro.core.hybrid.HybridTCIndex`) runs
  on: the base snapshot stays queryable while the source index absorbs
  incremental updates, and the overlay corrects the answers.

Typical use::

    index = IntervalTCIndex.build(graph)
    frozen = index.freeze()
    frozen.reachable("a", "c")               # probes + one bisect
    frozen.reachable_many(pairs)             # vectorised batch
    frozen.predecessors("c")                 # reverse index, no full scan

    index.add_arc("c", "d")                  # mutate through the index...
    frozen = index.freeze()                  # ...then re-freeze
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain
from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple)

from repro.core.engine import EngineBase, EngineCapabilities
from repro.errors import IndexStateError, NodeNotFoundError, ReproError
from repro.graph.digraph import Node
from repro.obs.instrument import instrumented

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.index import IntervalTCIndex


def _numpy():
    """The numpy module, imported on first use.

    Importing numpy costs ~100ms, so it waits until a freeze, load or
    build needs it: ``import repro`` stays numpy-free.
    """
    import numpy
    return numpy


#: :meth:`FrozenTCIndex._decode` expands runs into ranks in numpy when
#: it has at least this many runs, of this mean width or less; otherwise
#: it walks one list slice per run.  The numpy path has a fixed cost of
#: ~12 us and then ~0.08 us per covered node; a slice costs ~0.25 us per
#: run and ~0.05 us per node, so the numpy path wins only on many narrow
#: runs (measured on synthetic rows of 1-1000 runs of width 1-1000).
_EXPAND_MIN_RUNS = 48
_EXPAND_MAX_WIDTH = 4


def _int_view(array) -> memoryview:
    """``array`` as a ``memoryview`` whose items read as Python ints.

    Point queries index and bisect these instead of the numpy arrays.
    The view shares the array's memory; only a non-native byte order
    (a little-endian file on a big-endian host) takes a copy.
    """
    return memoryview(array.astype(array.dtype.newbyteorder("="),
                                   copy=False))


def _rank_keys_fit_int32(num_nodes: int) -> bool:
    """Whether rank-space keys fit int32: ``lo_keyed`` holds
    ``row * n + lo``, so they do for every graph below 46,341 nodes.
    The frozen engine's dtype and RTCF's interval dtype code both follow
    this one rule."""
    return num_nodes * num_nodes <= 2**31 - 1


def _rank_dtype(np, num_nodes: int):
    """The narrowest rank-key dtype; the keyed array is what searchsorted
    walks, so the narrower the better."""
    return np.int32 if _rank_keys_fit_int32(num_nodes) else np.int64


def _rev_keys_fit_int64(num_nodes: int, num_runs: int) -> bool:
    """Whether the reverse index's sort keys ``lo * num_runs + position``
    (all below ``num_nodes * num_runs``) fit int64."""
    return num_nodes * num_runs <= 2**63


def _rank_runs_python(used: Sequence, rows: Sequence) -> Tuple[
        List[int], List[int], List[int]]:
    """CSR ``(offsets, lows, highs)`` of every row's coalesced rank runs.

    The per-interval reference: two bisects per stored interval.  Works
    for any totally ordered numbers (fractional numbering included).
    """
    offsets: List[int] = [0]
    lows: List[int] = []
    highs: List[int] = []
    for row in rows:
        row_top = -1  # hi of the last emitted run for this row
        for lo, hi in row:
            first = bisect_left(used, lo)
            last = bisect_right(used, hi) - 1
            if first > last:
                continue  # interval spans only numbering gaps
            if len(lows) > offsets[-1] and first <= row_top + 1:
                row_top = max(row_top, last)
                highs[-1] = row_top
            else:
                lows.append(first)
                highs.append(last)
                row_top = last
        offsets.append(len(lows))
    return offsets, lows, highs


def _rank_runs_numpy(np, used: Sequence[int], rows: Sequence):
    """:func:`_rank_runs_python` as one vectorised pass, or ``None`` when
    some number does not fit int64.

    Every row's ``IntervalSet`` end-points are flattened in row order,
    mapped to rank space by ``searchsorted`` over the live numbers, and
    coalesced by :func:`_coalesce_runs`.
    """
    n = len(rows)
    los_lists = [row._los for row in rows]
    counts = np.fromiter(map(len, los_lists), dtype=np.int64, count=n)
    total = int(counts.sum())
    try:
        numbers = np.fromiter(used, dtype=np.int64, count=n)
        los = np.fromiter(chain.from_iterable(los_lists), dtype=np.int64,
                          count=total)
        his = np.fromiter(chain.from_iterable(row._his for row in rows),
                          dtype=np.int64, count=total)
    except OverflowError:
        return None
    first = np.searchsorted(numbers, los, side="left")
    last = np.searchsorted(numbers, his, side="right") - 1
    owner = np.repeat(np.arange(n, dtype=np.int64), counts)
    keep = first <= last  # gap-only intervals cover no live number
    if not keep.all():
        first, last, owner = first[keep], last[keep], owner[keep]
    return _coalesce_runs(np, first, last, owner, n)


def _run_heads(np, first, last, owner, stride: int):
    """Positions where a coalesced run starts among rank ranges grouped
    by ascending ``owner`` row and sorted by ``first`` within a row.

    A run starts where a range's first rank lies beyond its row's
    running maximum last rank plus one: overlapping and touching ranges
    (``[a, b]`` and ``[b + 1, c]``) join one run.  ``stride`` must exceed
    every ``last`` by at least two; then the running maximum of
    ``owner * stride + last`` is, within a row, that row's running
    maximum last rank, and a new row always starts a run.
    """
    starts = np.ones(len(first), dtype=bool)
    if len(first) > 1:
        base = owner * stride
        top = np.maximum.accumulate(base + last)
        np.greater(base[1:] + first[1:], top[:-1] + 1, out=starts[1:])
    return np.flatnonzero(starts)


def _coalesce_runs(np, first, last, owner, n: int):
    """CSR ``(offsets, lows, highs)`` of ``n`` rows' coalesced rank runs.

    ``first``/``last`` are non-empty rank ranges grouped by ascending
    ``owner`` row and sorted by ``first`` within a row; runs start where
    :func:`_run_heads` says.
    """
    heads = _run_heads(np, first, last, owner, n + 1)
    dtype = _rank_dtype(np, n)
    lows = first[heads].astype(dtype)
    highs = (np.maximum.reduceat(last, heads) if len(heads)
             else last).astype(dtype)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner[heads], minlength=n), out=offsets[1:])
    return offsets, lows, highs


class FrozenTCIndex(EngineBase):
    """Read-only flat-array compilation of an :class:`IntervalTCIndex`.

    Construct with :meth:`IntervalTCIndex.freeze` (or :meth:`from_index`);
    reload persisted buffers with :meth:`from_buffers` /
    :func:`repro.open_index`.

    The query surface mirrors the mutable index — :meth:`reachable`,
    :meth:`successors`, :meth:`predecessors`, :meth:`count_successors` —
    with native batch and semijoin paths (:meth:`reachable_many`,
    :meth:`reachable_from_set`, :meth:`reaching_set`,
    :meth:`any_reachable`, :meth:`are_disjoint`); the ``*_many`` set
    forms come from :class:`~repro.core.engine.EngineBase`.
    """

    def __init__(self, *, nodes: Sequence[Node],
                 offsets: Sequence[int], lows: Sequence[int],
                 highs: Sequence[int],
                 source: Optional["IntervalTCIndex"] = None,
                 source_epoch: int = 0) -> None:
        if len(offsets) != len(nodes) + 1:
            raise ReproError("offsets must hold exactly len(nodes) + 1 entries")
        if len(lows) != len(highs) or offsets[-1] != len(lows):
            raise ReproError("interval buffers are inconsistent with offsets")
        #: rank -> node; the dense interning order (ascending postorder number).
        self._nodes: List[Node] = list(nodes)
        self._id_of: Dict[Node, int] = {
            node: rank for rank, node in enumerate(self._nodes)}
        if len(self._id_of) != len(self._nodes):
            raise ReproError("duplicate node labels in frozen buffers")
        self._source = source
        self._source_epoch = source_epoch
        self._materialize(offsets, lows, highs)

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    @classmethod
    def from_index(cls, index: "IntervalTCIndex") -> "FrozenTCIndex":
        """Compile ``index`` into flat buffers (prefer ``index.freeze()``).

        End-points move from number space to rank space here: each stored
        interval ``[lo, hi]`` becomes the range of ranks of the live
        numbers it contains (dropped when it contains none — gap-only
        intervals cover no node), and touching or overlapping ranges of
        a row are coalesced into one run.

        Under integer numbering this is one vectorised pass over every
        row's flattened end-points (:func:`_rank_runs_numpy`), so a freeze
        after incremental updates costs the same as one after a build.
        Fractional numbering and end-points beyond int64 take the
        per-interval reference loop (:func:`_rank_runs_python`); both
        produce identical buffers.
        """
        used = index.used_numbers
        nodes = [index.node_of_number[number] for number in used]
        rows = [index.intervals[node] for node in nodes]
        runs = None
        if index.numbering == "integer":
            runs = _rank_runs_numpy(_numpy(), used, rows)
        if runs is None:
            runs = _rank_runs_python(used, rows)
        offsets, lows, highs = runs
        return cls(nodes=nodes, offsets=offsets, lows=lows, highs=highs,
                   source=index, source_epoch=index.epoch)

    @classmethod
    def from_graph(cls, graph, *, policy: str = "alg1",
                   merge_ordering: bool = False,
                   rng=None) -> "FrozenTCIndex":
        """Build straight from ``graph``: the buffers ``from_index`` would
        compile from ``IntervalTCIndex.build(graph, ...)`` at any gap,
        byte for byte, without the mutable index.

        ``graph`` is a :class:`~repro.graph.digraph.DiGraph` or an
        :class:`~repro.graph.io.EdgeList` (an edge-list file parsed by
        :func:`~repro.graph.io.read_edge_list`, with no ``DiGraph``).
        Every stage runs on integer node ids:
        :func:`~repro.graph.traversal.topological_arcs`,
        :func:`~repro.core.tree_cover.tree_parents`,
        :func:`~repro.core.labeling.postorder_ranks` and
        :func:`~repro.core.propagation.propagate_ranks`.  Only
        ``merge_ordering=True`` builds the labelled cover (and, from an
        edge list, the ``DiGraph``) its sibling heuristic reads; a cycle
        builds the ``DiGraph`` only to name the cycle.

        A snapshot takes no inserts, so there are no numbering gaps to
        reserve and no postorder numbers to keep.  The result has no
        source index and never goes stale.
        """
        from repro.core.labeling import postorder_ranks
        from repro.core.propagation import propagate_ranks
        from repro.core.tree_cover import check_policy, tree_parents
        from repro.graph.io import EdgeList
        from repro.graph.traversal import out_csr, topological_arcs
        check_policy(policy)
        np = _numpy()
        if isinstance(graph, EdgeList):
            edges, graph = graph, None
        else:
            edges = EdgeList.from_graph(graph)
        n = edges.num_nodes
        order, src, dst = topological_arcs(np, edges, graph)
        parent = tree_parents(np, n, src, dst, policy, rng=rng)
        if merge_ordering:
            from repro.core.merge_ordering import merge_ordered_ranks
            from repro.core.tree_cover import cover_from_parents
            labels = edges.labels
            cover = cover_from_parents(list(map(labels.__getitem__, order)),
                                       parent, policy)
            rank, entry = merge_ordered_ranks(
                edges.to_graph() if graph is None else graph, cover)
        else:
            rank, entry = postorder_ranks(parent)
        indptr, indices = out_csr(np, n, src, dst)
        offsets, lows, highs = propagate_ranks(np, indptr, indices, rank,
                                               entry)
        id_of_rank = np.empty(n, dtype=np.int64)
        id_of_rank[np.array(rank, dtype=np.int64)] = order
        nodes = list(map(edges.labels.__getitem__, id_of_rank.tolist()))
        return cls(nodes=nodes, offsets=offsets, lows=lows, highs=highs)

    @classmethod
    def from_buffers(cls, *, nodes: Sequence[Node],
                     offsets: Sequence[int], lows: Sequence[int],
                     highs: Sequence[int], epoch: int = 0) -> "FrozenTCIndex":
        """Rehydrate from persisted buffers — no source index, never stale.

        ``epoch`` restores the source-index epoch captured when the view
        was originally compiled, so a reloaded snapshot reports the same
        :attr:`epoch` it was saved with while behaving exactly like a
        :meth:`detach`-ed view (``lag() == 0``, ``is_stale()`` false).
        """
        return cls(nodes=nodes, offsets=offsets, lows=lows, highs=highs,
                   source_epoch=epoch)

    def _materialize(self, offsets, lows, highs) -> None:
        np = _numpy()
        n = len(self._nodes)
        dtype = _rank_dtype(np, n)
        self._dtype = dtype
        self._off = np.asarray(offsets, dtype=np.int64)
        self._lo = np.asarray(lows, dtype=dtype)
        self._hi = np.asarray(highs, dtype=dtype)
        row_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(self._off))
        self._lo_keyed = (row_of * n + self._lo).astype(dtype)
        # The reverse index: every run in (lo, position) order, which is
        # a stable sort by lo.  Sorting the keys lo * m + position and
        # reading both fields back with divmod beats an argsort plus a
        # lo gather; the keys stay below n * m, so only an index too
        # large to hold in memory would take the argsort.
        m = len(self._lo)
        if _rev_keys_fit_int64(n, m):
            stride = max(m, 1)
            rev_lo, order = np.divmod(
                np.sort(self._lo.astype(np.int64) * stride
                        + np.arange(m, dtype=np.int64)), stride)
            self._rev_lo = rev_lo.astype(dtype)
        else:
            order = np.argsort(self._lo, kind="stable")
            self._rev_lo = self._lo[order]
        self._rev_hi = self._hi[order]
        self._rev_owner = row_of[order].astype(dtype)
        self._rev_maxhi = (np.maximum.accumulate(self._rev_hi)
                           if m else self._rev_hi)
        self._lut = self._build_lut()
        self._make_views()

    def _make_views(self) -> None:
        """The :func:`_int_view` of each array a scalar read touches."""
        self._off_v = _int_view(self._off)
        self._lo_v = _int_view(self._lo)
        self._hi_v = _int_view(self._hi)

    def _build_lut(self):
        """A label -> id lookup table when labels are small non-negative ints.

        Integer labels are the common case for generated and condensed
        graphs; the table lets batch translation run as one vectorised
        gather instead of a Python dict lookup per element.
        """
        np = _numpy()
        nodes = self._nodes
        n = len(nodes)
        if n == 0 or not all(type(node) is int and node >= 0
                             for node in nodes):
            return None
        top = max(nodes)
        if top > max(65536, 4 * n):  # sparse labels: table not worth the RAM
            return None
        table = np.full(top + 1, -1, dtype=np.int64)
        table[np.asarray(nodes, dtype=np.int64)] = np.arange(n, dtype=np.int64)
        return table

    # ------------------------------------------------------------------
    # snapshot bookkeeping
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Source-index epoch captured when this view was compiled."""
        return self._source_epoch

    def lag(self) -> int:
        """How many epochs the source index has advanced since freeze().

        ``0`` means the view is exactly the source's current state.  A
        detached (pinned) snapshot always reports ``0`` — it has no source
        to lag behind.
        """
        if self._source is None:
            return 0
        return self._source.epoch - self._source_epoch

    def detach(self) -> "FrozenTCIndex":
        """Pin this snapshot: drop the source reference and never go stale.

        After ``detach()`` the view keeps answering queries for the state
        it captured, regardless of what happens to the source index.  The
        delta-overlay engine uses this to keep a queryable base while the
        source absorbs incremental updates.  Returns ``self``.
        """
        self._source = None
        return self

    def is_stale(self) -> bool:
        """Whether the source index changed since this view was frozen."""
        return self.lag() != 0

    def _check_fresh(self) -> None:
        """Raise once a strict view's source has moved on.  A view with no
        source (detached, loaded, mapped or built by :meth:`from_graph`)
        passes on one attribute read."""
        source = self._source
        if source is not None and source.epoch != self._source_epoch:
            raise IndexStateError(
                "frozen view is stale: the source index was updated after "
                "freeze(); call freeze() again for a fresh view")

    # ------------------------------------------------------------------
    # interning
    # ------------------------------------------------------------------
    def _id(self, node: Node) -> int:
        try:
            return self._id_of[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def __contains__(self, node: Node) -> bool:
        return node in self._id_of

    def __len__(self) -> int:
        return len(self._nodes)

    def nodes(self) -> Iterator[Node]:
        """All indexed nodes, in ascending postorder-number order."""
        return iter(self._nodes)

    # ------------------------------------------------------------------
    # point queries
    # ------------------------------------------------------------------
    def _runs(self, node: Node) -> List[Tuple[int, int]]:
        """``node``'s row as ``(lo, hi)`` rank pairs."""
        sid = self._id(node)
        start, stop = self._off_v[sid], self._off_v[sid + 1]
        return list(zip(self._lo_v[start:stop], self._hi_v[start:stop]))

    @instrumented("reachable")
    def reachable(self, source: Node, destination: Node) -> bool:
        """Whether ``source`` reaches ``destination`` (reflexive).

        Two label probes, two reads of the CSR row bounds, one
        ``bisect`` over the row in the flat ``lo`` buffer and one ``hi``
        read, all on Python ints through the typed views.
        """
        if self._source is not None:
            self._check_fresh()
        sid = self._id(source)
        rank = self._id(destination)
        start = self._off_v[sid]
        position = bisect_right(self._lo_v, rank, start, self._off_v[sid + 1])
        covered = position > start and self._hi_v[position - 1] >= rank
        tracer = self._tracer
        if tracer is not None and tracer.current() is not None:
            tracer.annotate("hit", "interval" if covered else "miss")
        return covered

    @instrumented("successors")
    def successors(self, source: Node, *, reflexive: bool = True) -> Set[Node]:
        """All nodes reachable from ``source``: its row's runs, decoded."""
        self._check_fresh()
        result = self._decode(*self._gather([self._id(source)]))
        if not reflexive:
            result.discard(source)
        return result

    def _gather(self, ids: Sequence[int]):
        """The stored runs of rows ``ids``, row after row: ``(lows, highs)``.

        One row is a slice of ``lo``/``hi``.  Other counts are one gather:
        output slot ``j`` in a row's stretch of the output reads stored
        run ``off[row] + j - first``, ``first`` being the stretch's first
        slot, so a ``repeat`` of the per-row shifts ``off[row] - first``
        plus an ``arange`` indexes every run at once.
        """
        if len(ids) == 1:
            start, stop = self._off_v[ids[0]], self._off_v[ids[0] + 1]
            return self._lo[start:stop], self._hi[start:stop]
        np = _numpy()
        rows = np.array(ids, dtype=np.int64)
        starts = self._off[rows]
        counts = self._off[rows + 1] - starts
        ends = np.cumsum(counts)
        positions = np.repeat(starts - ends + counts, counts)
        positions += np.arange(len(positions))
        return self._lo[positions], self._hi[positions]

    def _decode(self, lows, highs) -> Set[Node]:
        """The nodes whose ranks the runs ``lows``/``highs`` cover (runs
        may repeat or overlap, as a gather of several rows' runs does).

        Many narrow runs expand into ranks in numpy (a ``repeat`` of the
        runs' shifts plus an ``arange``) and map through ``_nodes`` in one
        ``.tolist()``; otherwise each run is one list slice (see
        ``_EXPAND_MIN_RUNS``).
        """
        nodes = self._nodes
        runs = len(lows)
        if runs >= _EXPAND_MIN_RUNS:
            np = _numpy()
            widths = highs - lows
            widths += 1
            ends = np.cumsum(widths)
            if int(ends[-1]) <= _EXPAND_MAX_WIDTH * runs:
                ranks = np.repeat(lows - ends + widths, widths)
                ranks += np.arange(len(ranks))
                return set(map(nodes.__getitem__, ranks.tolist()))
        result: Set[Node] = set()
        for low, high in zip(lows.tolist(), highs.tolist()):
            result.update(nodes[low:high + 1])
        return result

    def iter_successors(self, source: Node, *,
                        reflexive: bool = True) -> Iterator[Node]:
        """Lazily yield successors in postorder-number order (rows are
        disjoint sorted runs, so the walk is duplicate-free by layout)."""
        self._check_fresh()
        sid = self._id(source)
        nodes = self._nodes
        start, stop = self._off_v[sid], self._off_v[sid + 1]
        for low, high in zip(self._lo_v[start:stop], self._hi_v[start:stop]):
            for rank in range(low, high + 1):
                node = nodes[rank]
                if not reflexive and node == source:
                    continue
                yield node

    @instrumented("count_successors")
    def count_successors(self, source: Node, *, reflexive: bool = True) -> int:
        """Successor count straight off the run widths — no set built."""
        self._check_fresh()
        sid = self._id(source)
        start, stop = self._off_v[sid], self._off_v[sid + 1]
        total = int((self._hi[start:stop] - self._lo[start:stop] + 1).sum())
        return total if reflexive else total - 1

    @instrumented("predecessors")
    def predecessors(self, destination: Node, *,
                     reflexive: bool = True) -> Set[Node]:
        """Every node that reaches ``destination``, via the reverse index.

        A stabbing query at the destination's rank: binary search bounds
        the candidate window (intervals with ``lo <= q`` and prefix-max
        ``hi >= q``), then only that window is scanned — no full-index
        sweep like the mutable engine's O(n log k) fallback.
        """
        self._check_fresh()
        result = set(map(self._nodes.__getitem__,
                         self._stab(self._id(destination))))
        if not reflexive:
            result.discard(destination)
        return result

    def _stab(self, rank: int):
        """Owner ids of every interval containing ``rank``.

        ``rank`` is cast to the reverse arrays' own scalar type first: a
        Python int against an int32 array makes ``searchsorted`` cast the
        whole array to int64 on every call, O(intervals) instead of
        O(log intervals).  The ``searchsorted`` *methods* skip the ~1 µs
        dispatch of the ``np.searchsorted`` function.
        """
        rank = self._rev_lo.dtype.type(rank)
        stop = self._rev_lo.searchsorted(rank, "right")
        start = self._rev_maxhi[:stop].searchsorted(rank)
        window = self._rev_hi[start:stop]
        return self._rev_owner[start:stop][window >= rank].tolist()

    # ------------------------------------------------------------------
    # batch queries
    # ------------------------------------------------------------------
    @instrumented("reachable_many")
    def reachable_many(self, pairs: Iterable[Tuple[Node, Node]]) -> List[bool]:
        """Vectorised :meth:`reachable` over ``(source, destination)`` pairs.

        Every pair becomes one key ``sid * n + dest_rank``, and a single
        ``searchsorted`` over the row-keyed ``lo`` buffer answers the whole
        batch.  The pairs are answered in ascending key order and the
        answers scattered back to input order: each probe of the keyed
        buffer then starts from the last one's position, and the
        ``off``/``hi`` reads ascend too, so a batch walks the buffers front
        to back instead of touching a cold cache line per key.
        """
        self._check_fresh()
        pair_list = pairs if isinstance(pairs, list) else list(pairs)
        if not pair_list:
            return []
        np = _numpy()
        count = len(pair_list)
        ids = self._ids_table(pair_list, count)
        if ids is None:
            try:
                ids = np.fromiter(
                    map(self._id_of.__getitem__,
                        chain.from_iterable(pair_list)),
                    dtype=np.int64, count=2 * count).reshape(count, 2)
            except KeyError as missing:
                raise NodeNotFoundError(missing.args[0]) from None
        if self._lo_keyed.size == 0:  # every row is empty: nothing covered
            return [False] * count
        keys = ids[:, 0] * len(self) + ids[:, 1]
        order = keys.argsort()
        source_ids = ids[order, 0]
        dest_ranks = ids[order, 1]
        positions = self._lo_keyed.searchsorted(
            keys[order].astype(self._dtype), "right")
        # A key below its row's first run has position - 1 outside the
        # row (-1 reads the last run): the row test masks that read out.
        covered = ((positions > self._off[source_ids])
                   & (self._hi[positions - 1] >= dest_ranks))
        hits = np.empty(count, dtype=bool)
        hits[order] = covered
        return hits.tolist()

    def _ids_table(self, pair_list, count: int):
        """LUT translation of a pair batch, or ``None`` to use the dict path
        (labels other than exact ints, out-of-table labels, or unknown
        nodes).

        The type check comes first: numpy would read ``1.5`` or ``"1"``
        as the int 1 and answer for the wrong node.
        """
        table = self._lut
        if table is None:
            return None
        labels = list(chain.from_iterable(pair_list))
        if set(map(type, labels)) != {int}:
            return None
        np = _numpy()
        try:
            flat = np.fromiter(labels, dtype=np.int64, count=2 * count)
        except OverflowError:
            return None
        if flat.min() < 0 or flat.max() >= table.size:
            return None
        ids = table[flat]
        if (ids < 0).any():
            return None
        return ids.reshape(count, 2)

    # ------------------------------------------------------------------
    # set semijoins (the building blocks of recursive query evaluation)
    # ------------------------------------------------------------------
    @instrumented("reachable_from_set")
    def reachable_from_set(self, sources: Iterable[Node]) -> Set[Node]:
        """Everything reachable from *any* source (reflexive) — the
        forward semijoin: every source row's runs in one gather, decoded
        once."""
        self._check_fresh()
        return self._decode(*self._gather(list(map(self._id, sources))))

    @instrumented("reaching_set")
    def reaching_set(self, destinations: Iterable[Node]) -> Set[Node]:
        """Everything that reaches *any* destination (reflexive) — one
        reverse-index stab per distinct destination."""
        self._check_fresh()
        ranks = {self._id(destination) for destination in destinations}
        result: Set[Node] = set()
        node_of = self._nodes.__getitem__
        for rank in ranks:
            result.update(map(node_of, self._stab(rank)))
        return result

    @instrumented("any_reachable")
    def any_reachable(self, sources: Iterable[Node],
                      destinations: Iterable[Node]) -> bool:
        """Does any source reach any destination?  The sources' runs in
        one gather, then one ``searchsorted`` of their lows against the
        sorted destination ranks: a run hits when the first target at or
        above its ``lo`` lies at or below its ``hi``."""
        self._check_fresh()
        targets = sorted({self._id(destination)
                          for destination in destinations})
        if not targets:
            return False
        lows, highs = self._gather(list(map(self._id, sources)))
        # The sentinel len(self) lies above every rank, so a run with no
        # target at or above its lo compares false.
        marks = _numpy().array(targets + [len(self)], dtype=lows.dtype)
        return bool((marks[marks.searchsorted(lows)] <= highs).any())

    @instrumented("are_disjoint")
    def are_disjoint(self, first: Node, second: Node) -> bool:
        """Whether the two nodes share no common descendant (reflexive).

        Rank coverage *is* the successor set, so this is a two-pointer
        walk over two sorted disjoint run lists — O(k1 + k2), no
        successor sets materialised.  (Comparable nodes always overlap:
        each node's row covers its own rank.)
        """
        self._check_fresh()
        first_id = self._id(first)
        second_id = self._id(second)
        off, lo, hi = self._off_v, self._lo_v, self._hi_v
        i, i_stop = off[first_id], off[first_id + 1]
        j, j_stop = off[second_id], off[second_id + 1]
        while i < i_stop and j < j_stop:
            if hi[i] < lo[j]:
                i += 1
            elif hi[j] < lo[i]:
                j += 1
            else:
                return False
        return True

    # ------------------------------------------------------------------
    # introspection and persistence
    # ------------------------------------------------------------------
    @property
    def num_intervals(self) -> int:
        """Stored rank runs (after per-row coalescing at freeze time)."""
        return len(self._lo)

    @property
    def nbytes(self) -> int:
        """Approximate buffer footprint (CSR + reverse index), in bytes."""
        buffers = (self._off, self._lo, self._hi,
                   self._rev_lo, self._rev_hi, self._rev_owner,
                   self._rev_maxhi)
        total = sum(buffer.nbytes for buffer in buffers)
        total += self._lo_keyed.nbytes
        if self._lut is not None:
            total += self._lut.nbytes
        return total

    def to_buffers(self) -> dict:
        """Plain-list view of the persistent buffers (see
        :func:`repro.core.serialize.save_frozen_index`).

        The reverse index and keyed arrays are derived, not stored: a load
        re-sorts ``lo`` once (O(m log m)) instead of shipping them.
        ``epoch`` rides along so staleness metadata survives the
        round-trip (see :meth:`from_buffers`).
        """
        return {
            "nodes": list(self._nodes),
            "offsets": self._off.tolist(),
            "lows": self._lo.tolist(),
            "highs": self._hi.tolist(),
            "epoch": self._source_epoch,
        }

    def capabilities(self) -> EngineCapabilities:
        """Immutable compiled buffers with vectorised batch queries."""
        return EngineCapabilities(
            kind="frozen", supports_updates=False, supports_batch=True,
            is_frozen_snapshot=True, durable=False)

    def stats(self) -> dict:
        """A small size/shape report for CLI output and benchmarks."""
        return {
            "num_nodes": len(self._nodes),
            "num_intervals": self.num_intervals,
            "nbytes": self.nbytes,
            "stale": self.is_stale(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"FrozenTCIndex(nodes={len(self._nodes)}, "
                f"intervals={self.num_intervals}"
                f"{', STALE' if self.is_stale() else ''})")
