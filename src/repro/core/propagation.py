"""The propagation kernel.

The Section 3.2 propagation pass in :mod:`repro.core.labeling` visits
nodes in reverse topological order and merges each successor's interval
set into the node's own with per-node Python sorts.  It stays as the
tests' reference; every build runs this kernel instead.

The kernel reformulates the pass over *reverse-topological levels*.
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
labeling is *identical*, not merely equivalent.

A level's numpy calls cost a fixed ~90 us whatever its size, which a
chain-shaped graph (one node per level) would pay once per node; a level
that gathers few runs (:data:`SCALAR_RUNS`, counted before any numpy
call) therefore takes a scalar merge over Python lists instead.

The level loop (:func:`_propagate_pool`) runs on integer ids, the
positions of a topological order, over an out-CSR on them, and takes
tree intervals as integer codes below 2n, so it serves every caller: a
direct frozen build (:func:`propagate_ranks`, fed by
:meth:`FrozenTCIndex.from_graph`'s integer pipeline) feeds it postorder
*ranks*; a mutable build and every Section 4.2 recompute
(:func:`propagate_tree_intervals`) build the CSR from their graph
(:func:`~repro.graph.traversal.graph_csr`) and feed it end-point
positions in a sorted value table, so numbers of any size, Fractions
included, come back exact.

The two routes differ in what a level keeps.  In number space the kernel
keeps exactly the subsumption-maximal intervals, as ``add_all`` does.  In
rank space every rank is a live node, so the Section 3.2 merge of
adjacent and overlapping intervals (Fig. 3.8) is exactly the frozen
snapshot's coalescing: each level's sort and sweep, and the scalar merge,
emit coalesced runs (a run starts where ``lo`` exceeds its owner's
running maximum ``hi`` plus one, the rule
:func:`~repro.core.frozen._run_heads` states once for the kernel and the
freeze), so the rows come out of the level loop ready for the snapshot.
"""

from __future__ import annotations

from operator import neg
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.core.frozen import _numpy, _rank_dtype, _run_heads
from repro.core.intervals import Interval, IntervalSet
from repro.core.labeling import Labeling
from repro.core.tree_cover import TreeCover
from repro.errors import ReproError
from repro.graph.digraph import DiGraph, Node
from repro.graph.traversal import graph_csr


def _sweep(np, los, his, owners, coalesce: bool = False):
    """Resolve one level's (lo, hi, owner) arrays to their
    subsumption-maximal runs, ordered by (owner, lo); with ``coalesce``
    (rank space), to their coalesced runs instead."""
    # (owner asc, lo asc, hi desc) as ONE int64 key when it fits: sorting
    # the keys themselves and reading the fields back out of them beats
    # an argsort plus three gathers by ~2-3x, and lexsort's three stable
    # passes by more.  Equal keys are equal intervals, so the order is
    # exact.  End-point codes stay below 2n, so the key overflows int64
    # only on wide levels of graphs past a million nodes; lexsort takes
    # those levels.
    lo_span = int(los.max()) + 1
    hi_span = int(his.max()) + 1
    owner_span = int(owners.max()) + 1
    if owner_span * lo_span * hi_span < 2**62:
        head, tail = np.divmod(
            np.sort((owners * lo_span + los) * hi_span + (hi_span - 1 - his)),
            hi_span)
        shi = hi_span - 1 - tail
        sown, slo = np.divmod(head, lo_span)
    else:
        order = np.lexsort((-his, los, owners))
        slo = los[order]
        shi = his[order]
        sown = owners[order]
    if coalesce:
        heads = _run_heads(np, slo, shi, sown, hi_span + 1)
        return slo[heads], np.maximum.reduceat(shi, heads), sown[heads]
    # One key per interval such that comparing keys within an owner
    # compares hi, and any later owner's key beats any earlier owner's:
    # keep iff the key exceeds the running maximum (the add_all sweep,
    # segmented).
    keys = sown * hi_span + shi
    running = np.maximum.accumulate(keys)
    keep = np.empty(len(keys), dtype=bool)
    keep[0] = True
    np.greater(keys[1:], running[:-1], out=keep[1:])
    return slo[keep], shi[keep], sown[keep]


def _merge_scalar(pairs: List[Tuple[int, int]],
                  coalesce: bool = False) -> List[Tuple[int, int]]:
    """The subsumption-maximal ``(lo, hi)`` runs among ``(lo, -hi)``
    pairs, sorted by lo: :meth:`IntervalSet.add_all`'s sort and sweep.
    With ``coalesce`` (rank space), the coalesced runs instead: the
    scalar form of :func:`~repro.core.frozen._run_heads`."""
    pairs.sort()  # lo ascending, hi descending
    kept = []
    if coalesce:
        run_lo, top = pairs[0][0], -pairs[0][1]
        for lo, neg_hi in pairs:
            if lo > top + 1:
                kept.append((run_lo, top))
                run_lo, top = lo, -neg_hi
            elif -neg_hi > top:
                top = -neg_hi
        kept.append((run_lo, top))
        return kept
    top = -1  # end-points are non-negative
    for lo, neg_hi in pairs:
        if -neg_hi > top:
            top = -neg_hi
            kept.append((lo, top))
    return kept


def _levelize(indptr: List[int], indices: List[int]) -> List[int]:
    """Longest distance to a sink for every node (level schedule) of a
    CSR on topological positions: successors have higher ids."""
    level = [0] * (len(indptr) - 1)
    get = level.__getitem__
    for node in range(len(level) - 1, -1, -1):
        successors = indices[indptr[node]:indptr[node + 1]]
        if successors:
            level[node] = max(map(get, successors)) + 1
    return level


def _concat_ranges(np, starts, lengths):
    """Positions of the concatenated ``[start, start + length)`` ranges:
    the cumsum trick, one ``arange`` plus a repeated per-range shift."""
    shift = np.cumsum(lengths) - lengths
    return (np.arange(int(lengths.sum()), dtype=np.int64)
            + np.repeat(starts - shift, lengths))


#: A level whose members gather at most this many runs (one tree
#: interval each plus their successors' resolved runs) takes the scalar
#: merge, node by node; larger levels take the numpy calls.
SCALAR_RUNS = 64


def _propagate_pool(np, indptr, indices, tree_lo_all, tree_hi_all,
                    coalesce: bool = False):
    """The level loop: every node's final runs in one flat pool.

    Ids are topological positions and ``(indptr, indices)`` is the
    out-CSR on them, so every successor has a higher id.  ``tree_lo_all``
    and ``tree_hi_all`` hold each id's tree interval as int64 codes below
    ``2 * n`` — ranks, or end-point positions in a value table.
    Subsumption compares lo with lo and hi with hi only, so any strictly
    monotone relabelling of either end keeps the same survivors in the
    same order.  With ``coalesce`` (rank codes only, where every code is
    a live node) each level emits coalesced runs instead: overlapping and
    touching runs of a node join one run.  Returns ``(pool_lo, pool_hi,
    start, end)``: id ``i``'s runs are ``pool[start[i]:end[i]]``, sorted
    by ``lo``.

    The data picks each level's method: a level that gathers at most
    :data:`SCALAR_RUNS` runs takes the scalar merge, counted from the
    resolved slice lengths before any numpy call; every other level is
    resolved with a fixed number of numpy calls (see :func:`_sweep` for
    its one size-chosen sort).
    """
    n = len(tree_lo_all)
    ptr = indptr.tolist()
    succ = indices.tolist()
    levels: List[List[int]] = []
    for node, level in enumerate(_levelize(ptr, succ)):
        while level >= len(levels):
            levels.append([])
        levels[level].append(node)

    # Every node's final (lo, hi) runs live in one flat pool (written
    # exactly once, at the node's own level); gathering a level's input
    # is one fancy-index read instead of per-arc array allocations.
    capacity = max(1024, 2 * n)
    pool_lo = np.empty(capacity, dtype=np.int64)
    pool_hi = np.empty(capacity, dtype=np.int64)
    size = 0
    start_arr = np.zeros(n, dtype=np.int64)
    end_arr = np.zeros(n, dtype=np.int64)
    # The scalar merge goes through memoryviews: an element access costs
    # a few times less than a numpy scalar index.
    lo_view, hi_view = memoryview(pool_lo), memoryview(pool_hi)
    start_view, end_view = memoryview(start_arr), memoryview(end_arr)
    tree_lo_view = memoryview(tree_lo_all)
    tree_hi_view = memoryview(tree_hi_all)

    def reserve(extra: int) -> int:
        """Grow the pool to hold ``extra`` more runs; return the old size."""
        nonlocal pool_lo, pool_hi, lo_view, hi_view, capacity, size
        begin = size
        size += extra
        if size > capacity:
            while capacity < size:
                capacity *= 2
            grown_lo = np.empty(capacity, dtype=np.int64)
            grown_hi = np.empty(capacity, dtype=np.int64)
            grown_lo[:begin] = pool_lo[:begin]
            grown_hi[:begin] = pool_hi[:begin]
            pool_lo, pool_hi = grown_lo, grown_hi
            lo_view, hi_view = memoryview(pool_lo), memoryview(pool_hi)
        return begin

    def is_small(ids: List[int]) -> bool:
        """Whether the level gathers at most :data:`SCALAR_RUNS` runs;
        stops counting once past it."""
        budget = SCALAR_RUNS
        for node_id in ids:
            budget -= 1
            for successor in succ[ptr[node_id]:ptr[node_id + 1]]:
                budget -= end_view[successor] - start_view[successor]
            if budget < 0:
                return False
        return True

    def resolve_scalar(node_id: int) -> None:
        """One node's runs by :meth:`IntervalSet.add_all`'s sort and
        sweep, over Python values: no per-level numpy calls."""
        pairs = [(tree_lo_view[node_id], -tree_hi_view[node_id])]
        for successor in succ[ptr[node_id]:ptr[node_id + 1]]:
            begin = start_view[successor]
            end = end_view[successor]
            pairs += zip(lo_view[begin:end].tolist(),
                         map(neg, hi_view[begin:end].tolist()))
        kept = _merge_scalar(pairs, coalesce)
        position = reserve(len(kept))
        start_view[node_id] = position
        for lo, hi in kept:
            lo_view[position] = lo
            hi_view[position] = hi
            position += 1
        end_view[node_id] = position

    for ids in levels:
        if is_small(ids):
            for node_id in ids:
                resolve_scalar(node_id)
            continue
        count = len(ids)
        members = np.asarray(ids, dtype=np.int64)
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
            kept_lo, kept_hi, kept_owner = _sweep(np, los, his, owners,
                                                  coalesce)
            bounds = np.searchsorted(kept_owner,
                                     np.arange(count + 1))

        begin = reserve(len(kept_lo))
        pool_lo[begin:size] = kept_lo
        pool_hi[begin:size] = kept_hi
        start_arr[members] = begin + bounds[:-1]
        end_arr[members] = begin + bounds[1:]
    return pool_lo[:size], pool_hi[:size], start_arr, end_arr


def propagate_tree_intervals(graph: DiGraph, order: Sequence[Node],
                             tree_interval: Mapping[Node, Interval],
                             intervals: Dict[Node, IntervalSet]) -> None:
    """Set each node's ``intervals`` entry to the Section 3.2 pass's
    result, in topological ``order`` of ``graph``: the kernel run on the
    end-points' positions in one sorted table (a strictly monotone
    relabelling), its survivors mapped back through the table."""
    np = _numpy()
    n = len(order)
    los = [tree_interval[node].lo for node in order]
    his = [tree_interval[node].hi for node in order]
    values = sorted({*los, *his})
    code = {value: position for position, value in enumerate(values)}
    tree_lo = np.fromiter(map(code.__getitem__, los), np.int64, n)
    tree_hi = np.fromiter(map(code.__getitem__, his), np.int64, n)
    indptr, indices = graph_csr(graph, order)
    pool_lo, pool_hi, start_arr, end_arr = _propagate_pool(
        np, np.array(indptr, dtype=np.int64),
        np.array(indices, dtype=np.int64), tree_lo, tree_hi)

    # Write-back: two bulk gathers through the table, then plain list
    # slices — no per-node numpy round trips.
    table = np.array(values, dtype=object)
    all_lo = table[pool_lo].tolist()
    all_hi = table[pool_hi].tolist()
    adopt = IntervalSet._adopt
    for node, begin, end in zip(order, start_arr.tolist(),
                                end_arr.tolist()):
        intervals[node] = adopt(all_lo[begin:end], all_hi[begin:end])


def propagate_intervals_vectorized(graph: DiGraph, cover: TreeCover,
                                   labeling: Labeling) -> None:
    """Mutate ``labeling.intervals`` in place to the exact sets the
    sequential :func:`~repro.core.labeling.propagate_intervals` makes."""
    propagate_tree_intervals(graph, cover.order, labeling.tree_interval,
                             labeling.intervals)


def propagate_ranks(np, indptr, indices, rank: Sequence[int],
                    entry: Sequence[int]):
    """A fresh build's frozen rows, propagated in rank space.

    Ids are topological positions, ``(indptr, indices)`` the out-CSR on
    them, and node ``i``'s tree interval in rank space is
    ``[entry[i], rank[i]]`` (:func:`~repro.core.labeling.postorder_ranks`).
    Returns the CSR ``(offsets, lows, highs)`` of every row's coalesced
    rank runs, rows in rank order — what :meth:`FrozenTCIndex.from_index`
    compiles from the same cover at any gap.  Every rank is a live node,
    so the kernel coalesces each row as it resolves it (the union of
    coalesced runs coalesces to the same runs as the union of the raw
    ones), and no pass over the whole pool follows.
    """
    n = len(rank)
    rank_of_id = np.array(rank, dtype=np.int64)
    pool_lo, pool_hi, start_arr, end_arr = _propagate_pool(
        np, indptr, indices, np.array(entry, dtype=np.int64), rank_of_id,
        coalesce=True)

    # Gather every row in rank order; each is already coalesced.
    id_of_rank = np.empty(n, dtype=np.int64)
    id_of_rank[rank_of_id] = np.arange(n, dtype=np.int64)
    starts = start_arr[id_of_rank]
    lengths = end_arr[id_of_rank] - starts
    gather = _concat_ranges(np, starts, lengths)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    dtype = _rank_dtype(np, n)
    return (offsets, pool_lo[gather].astype(dtype, copy=False),
            pool_hi[gather].astype(dtype, copy=False))


def check_propagation(propagation: str) -> None:
    """Reject every ``propagation=`` value but the kernel's name, which
    the benchmark harness still passes."""
    if propagation != "vectorized":
        raise ReproError(
            f"unknown propagation mode {propagation!r}: every build runs "
            "the one kernel, 'vectorized'; the sequential pass is the test "
            "reference, repro.core.labeling.propagate_intervals")


def run_propagation(graph: DiGraph, cover: TreeCover, labeling: Labeling,
                    propagation: str = "vectorized") -> None:
    """:func:`propagate_intervals_vectorized`, kept only for the
    benchmark harness, which names the mode."""
    check_propagation(propagation)
    propagate_intervals_vectorized(graph, cover, labeling)
