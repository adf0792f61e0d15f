"""Vectorized interval propagation.

The Section 3.2 propagation pass in :mod:`repro.core.labeling` visits
nodes in reverse topological order and merges each successor's interval
set into the node's own with per-node Python sorts — correct, but
single-core and interpreter-bound, which is what keeps million-node
builds from being interactive.

This module reformulates the pass over *reverse-topological levels*.
Level 0 holds the sinks; a node's level is one more than the maximum
level of its graph successors, so by the time a level is processed every
successor's final interval set is known.  Nothing inside a level depends
on anything else inside it, so a whole level resolves at once:
concatenate, for every node of the level, its tree interval plus all of
its successors' final ``(lo, hi)`` runs into three flat arrays (``lo``,
``hi``, ``owner``), then resolve the whole level with one sort and one
segmented maximum-accumulate sweep.  The sweep keeps an interval exactly
when its upper bound exceeds the running maximum within its owner
segment — the same "subsumption-maximal elements of the union" fixpoint
:meth:`IntervalSet.add_all` reaches one merge at a time, so the output
labeling is *identical*, not merely equivalent (the parity test and the
differential fuzzer both assert this).

The level loop (:func:`_propagate_pool`) takes tree intervals as plain
arrays, so it serves two callers: the mutable build feeds it gapped
postorder numbers and writes the pool back into per-node
``IntervalSet`` objects; a build that goes straight to a frozen engine
(:func:`propagate_rank_runs`) feeds it postorder *ranks* and coalesces
the pool into the frozen CSR rows directly.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.frozen import _coalesce_runs, _numpy
from repro.core.intervals import IntervalSet
from repro.core.labeling import Labeling, postorder_walk, propagate_intervals
from repro.core.tree_cover import TreeCover
from repro.errors import ReproError
from repro.graph.digraph import DiGraph, Node

#: Propagation modes accepted by ``IntervalTCIndex.build`` and
#: :func:`repro.core.labeling.label_graph`.
PROPAGATION_MODES = ("python", "vectorized")


def _sweep(np, los, his, owners):
    """Resolve one level's (lo, hi, owner) arrays to their
    subsumption-maximal runs, ordered by (owner, lo)."""
    # (owner asc, lo asc, hi desc) in ONE argsort when the composite key
    # fits int64 — a single introsort beats lexsort's three stable
    # passes by ~2-3x.  The key overflows int64 once the three spans
    # multiply past 2**62 (end-points past ~2**31 on a one-node level);
    # lexsort takes those levels.
    lo_span = int(los.max()) + 1
    hi_span = int(his.max()) + 1
    owner_span = int(owners.max()) + 1
    if owner_span * lo_span * hi_span < 2**62:
        key = (owners * lo_span + los) * hi_span + (hi_span - 1 - his)
        order = np.argsort(key)
    else:
        order = np.lexsort((-his, los, owners))
    slo = los[order]
    shi = his[order]
    sown = owners[order]
    # One key per interval such that comparing keys within an owner
    # compares hi, and any later owner's key beats any earlier owner's:
    # keep iff the key exceeds the running maximum (the add_all sweep,
    # segmented).
    stride = int(shi.max()) + 1
    keys = sown * stride + shi
    running = np.maximum.accumulate(keys)
    keep = np.empty(len(keys), dtype=bool)
    keep[0] = True
    np.greater(keys[1:], running[:-1], out=keep[1:])
    return slo[keep], shi[keep], sown[keep]


def _levelize(graph: DiGraph, order: List[Node]) -> Dict[Node, int]:
    """Longest distance to a sink for every node (level schedule)."""
    return _levelize_lists(
        order, [graph.successors(node) for node in order])


def _levelize_lists(order: List[Node], succ_lists: List) -> Dict[Node, int]:
    """:func:`_levelize` over pre-fetched successor collections."""
    level: Dict[Node, int] = {}
    for node, succs in zip(reversed(order), reversed(succ_lists)):
        deepest = -1
        for successor in succs:
            if level[successor] > deepest:
                deepest = level[successor]
        level[node] = deepest + 1
    return level


def _concat_ranges(np, starts, lengths):
    """Positions of the concatenated ``[start, start + length)`` ranges:
    the cumsum trick, one ``arange`` plus a repeated per-range shift."""
    shift = np.cumsum(lengths) - lengths
    return (np.arange(int(lengths.sum()), dtype=np.int64)
            + np.repeat(starts - shift, lengths))


def _propagate_pool(np, graph: DiGraph, order: List[Node], tree_lo_all,
                    tree_hi_all):
    """The level loop: every node's final runs in one flat pool.

    Ids are positions in the topological ``order``; ``tree_lo_all`` and
    ``tree_hi_all`` hold each id's tree interval, in number space or in
    rank space alike — subsumption compares lo with lo and hi with hi
    only, so any strictly monotone relabelling of either end keeps the
    same survivors in the same order.  Returns ``(pool_lo, pool_hi,
    start, end)``: id ``i``'s runs are ``pool[start[i]:end[i]]``, sorted
    by ``lo``.

    Each level is resolved with a fixed number of numpy calls.  A level
    whose segmented keys (``count * hi``) would overflow int64 takes
    :func:`_sweep_python`; one whose composite sort key (``owners * lo *
    hi``) would, sorts with ``lexsort``.  End-points grow with the gap,
    so the rank-space route, whose sort keys are about ``gap**2`` times
    smaller, reaches both fallbacks far later than the mutable build.
    """
    n = len(order)
    successors = graph.successors
    succ_lists = [successors(node) for node in order]
    level_of = _levelize_lists(order, succ_lists)

    # The graph as CSR arrays in id space.  After this there is no
    # per-node or per-arc Python work inside the level loop.
    id_of = {node: i for i, node in enumerate(order)}
    counts = np.array([len(succs) for succs in succ_lists], dtype=np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    get_id = id_of.__getitem__
    indices = np.array(
        [identifier for succs in succ_lists
         for identifier in map(get_id, succs)], dtype=np.int64)

    levels: List[List[int]] = [
        [] for _ in range(max(level_of.values(), default=-1) + 1)]
    # Iterate `order`, not the dict, so level membership order is
    # deterministic (insertion order of a dict built from `order` would
    # match, but this makes the invariant explicit).
    for position, node in enumerate(order):
        levels[level_of[node]].append(position)

    # Every node's final (lo, hi) runs live in one flat pool (written
    # exactly once, at the node's own level); gathering a level's input
    # is one fancy-index read instead of per-arc array allocations.
    capacity = max(1024, 2 * n)
    pool_lo = np.empty(capacity, dtype=np.int64)
    pool_hi = np.empty(capacity, dtype=np.int64)
    size = 0
    start_arr = np.zeros(n, dtype=np.int64)
    end_arr = np.zeros(n, dtype=np.int64)

    for ids in levels:
        members = np.asarray(ids, dtype=np.int64)
        count = len(ids)
        tree_lo = tree_lo_all[members]
        tree_hi = tree_hi_all[members]
        row_start = indptr[members]
        succ_counts = indptr[members + 1] - row_start

        if not succ_counts.any():
            # A pure-sink level: everything keeps its tree interval.
            kept_lo, kept_hi = tree_lo, tree_hi
            bounds = np.arange(count + 1, dtype=np.int64)
        else:
            # Walk the CSR successor lists, then each successor's
            # resolved slice of the pool.
            succ_ids = indices[_concat_ranges(np, row_start, succ_counts)]
            starts = start_arr[succ_ids]
            lengths = end_arr[succ_ids] - starts
            gather = _concat_ranges(np, starts, lengths)
            arc_owner = np.repeat(np.arange(count, dtype=np.int64),
                                  succ_counts)
            los = np.concatenate([tree_lo, pool_lo[gather]])
            his = np.concatenate([tree_hi, pool_hi[gather]])
            owners = np.concatenate([
                np.arange(count, dtype=np.int64),
                np.repeat(arc_owner, lengths)])
            if count * (int(his.max()) + 1) >= 2**62:
                kept_lo, kept_hi, kept_owner = _sweep_python(
                    np, ids, tree_lo_all, tree_hi_all, pool_lo,
                    pool_hi, start_arr, end_arr, indptr, indices)
            else:
                kept_lo, kept_hi, kept_owner = _sweep(np, los, his, owners)
            bounds = np.searchsorted(kept_owner,
                                     np.arange(count + 1))

        needed = size + len(kept_lo)
        if needed > capacity:
            while capacity < needed:
                capacity *= 2
            grown_lo = np.empty(capacity, dtype=np.int64)
            grown_hi = np.empty(capacity, dtype=np.int64)
            grown_lo[:size] = pool_lo[:size]
            grown_hi[:size] = pool_hi[:size]
            pool_lo, pool_hi = grown_lo, grown_hi
        pool_lo[size:needed] = kept_lo
        pool_hi[size:needed] = kept_hi
        start_arr[members] = size + bounds[:-1]
        end_arr[members] = size + bounds[1:]
        size = needed
    return pool_lo[:size], pool_hi[:size], start_arr, end_arr


def propagate_intervals_vectorized(graph: DiGraph, cover: TreeCover,
                                   labeling: Labeling) -> None:
    """Drop-in replacement for :func:`propagate_intervals`.

    Mutates ``labeling.intervals`` in place to the exact sets the
    sequential pass produces.
    """
    np = _numpy()
    order = cover.order
    tree_spans = [labeling.tree_interval[node] for node in order]
    pool_lo, pool_hi, start_arr, end_arr = _propagate_pool(
        np, graph, order,
        np.array([span.lo for span in tree_spans], dtype=np.int64),
        np.array([span.hi for span in tree_spans], dtype=np.int64))

    # Write-back: two bulk tolist() calls, then plain list slices —
    # no per-node numpy round trips.
    all_lo = pool_lo.tolist()
    all_hi = pool_hi.tolist()
    intervals = labeling.intervals
    make = IntervalSet.__new__
    for node, begin, end in zip(order, start_arr.tolist(),
                                end_arr.tolist()):
        fresh = make(IntervalSet)
        fresh._los = all_lo[begin:end]
        fresh._his = all_hi[begin:end]
        intervals[node] = fresh


def propagate_rank_runs(np, graph: DiGraph, cover: TreeCover):
    """A fresh build's frozen rows, propagated in rank space.

    Returns ``(nodes, offsets, lows, highs)``: the nodes in postorder
    (rank order) and the CSR of every row's coalesced rank runs — what
    :meth:`FrozenTCIndex.from_index` compiles from the same cover at any
    gap.  The ``k``-th visited node's number-space tree interval
    ``[(k_first - 1) * gap + 1, k * gap]`` is ``[k_first - 1, k - 1]`` in
    rank space, so the pool kernel runs on ranks directly: no per-node
    ``IntervalSet``, no end-point search, no mutable index.
    """
    nodes, entries = postorder_walk(cover)
    n = len(nodes)
    order = cover.order
    rank_of = {node: rank for rank, node in enumerate(nodes)}
    rank_of_id = np.fromiter(map(rank_of.__getitem__, order),
                             dtype=np.int64, count=n)
    tree_lo = np.asarray(entries, dtype=np.int64)[rank_of_id]
    pool_lo, pool_hi, start_arr, end_arr = _propagate_pool(
        np, graph, order, tree_lo, rank_of_id)

    # Gather every row in rank order; each is already sorted by lo.
    id_of_rank = np.empty(n, dtype=np.int64)
    id_of_rank[rank_of_id] = np.arange(n, dtype=np.int64)
    starts = start_arr[id_of_rank]
    lengths = end_arr[id_of_rank] - starts
    gather = _concat_ranges(np, starts, lengths)
    owner = np.repeat(np.arange(n, dtype=np.int64), lengths)
    offsets, lows, highs = _coalesce_runs(
        np, pool_lo[gather], pool_hi[gather], owner, n)
    return nodes, offsets, lows, highs


def _sweep_python(np, ids, tree_lo_all, tree_hi_all, pool_lo, pool_hi,
                  start_arr, end_arr, indptr, indices):
    """Sequential fallback for one level (sweep-key overflow guard).

    Produces the same (owner, lo)-ordered kept arrays the vectorized
    sweep would: ``add_all``'s survivors are sorted by ``lo`` ascending,
    matching the segmented sweep's output order.
    """
    kept_lo: List[int] = []
    kept_hi: List[int] = []
    kept_owner: List[int] = []
    for position, node_id in enumerate(ids):
        own = IntervalSet([(int(tree_lo_all[node_id]),
                            int(tree_hi_all[node_id]))])
        for successor in indices[indptr[node_id]:indptr[node_id + 1]]:
            begin, end = int(start_arr[successor]), int(end_arr[successor])
            own.add_all(zip(pool_lo[begin:end].tolist(),
                            pool_hi[begin:end].tolist()))
        kept_lo.extend(own._los)
        kept_hi.extend(own._his)
        kept_owner.extend([position] * len(own._los))
    return (np.asarray(kept_lo, dtype=np.int64),
            np.asarray(kept_hi, dtype=np.int64),
            np.asarray(kept_owner, dtype=np.int64))


def run_propagation(graph: DiGraph, cover: TreeCover, labeling: Labeling,
                    propagation: str = "python") -> None:
    """Dispatch the propagation pass by mode name.

    ``"python"`` is the sequential reference pass; ``"vectorized"`` the
    numpy level kernel.  Both produce identical labelings.
    """
    if propagation not in PROPAGATION_MODES:
        raise ReproError(
            f"unknown propagation mode {propagation!r}; "
            f"choose from {PROPAGATION_MODES}")
    if propagation == "python":
        propagate_intervals(graph, cover, labeling)
    else:
        propagate_intervals_vectorized(graph, cover, labeling)
