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

Without numpy the kernel degrades gracefully to the sequential pass, so
``propagation="vectorized"`` is safe to request unconditionally.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.frozen import _numpy
from repro.core.intervals import IntervalSet
from repro.core.labeling import Labeling, propagate_intervals
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
    # passes by ~2-3x.  The range guard never fires for realistic
    # numberings (the caller already bounds owner * hi).
    lo_span = int(los.max()) + 1
    hi_span = int(his.max()) + 1
    owner_span = int(owners.max()) + 1
    if owner_span * lo_span * hi_span < 2**62:
        key = (owners * lo_span + los) * hi_span + (hi_span - 1 - his)
        order = np.argsort(key)
    else:  # pragma: no cover - astronomically large gaps only
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


def propagate_intervals_vectorized(graph: DiGraph, cover: TreeCover,
                                   labeling: Labeling) -> None:
    """Drop-in replacement for :func:`propagate_intervals`.

    Mutates ``labeling.intervals`` in place to the exact sets the
    sequential pass produces.  Falls back to the sequential pass when
    numpy is unavailable.
    """
    np = _numpy()
    if np is None:  # numpy-free installs: correct, just not vectorized
        propagate_intervals(graph, cover, labeling)
        return

    order = cover.order
    n = len(order)
    if not n:
        return
    successors = graph.successors
    succ_lists = [successors(node) for node in order]
    level_of = _levelize_lists(order, succ_lists)
    tree = labeling.tree_interval

    # One-time move into id space (id = position in `order`): the graph
    # as CSR arrays, the tree intervals as flat arrays.  After this,
    # each level is resolved with a fixed number of numpy calls — no
    # per-node or per-arc Python work inside the level loop.
    id_of = {node: i for i, node in enumerate(order)}
    counts = np.array([len(succs) for succs in succ_lists], dtype=np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    get_id = id_of.__getitem__
    indices = np.array(
        [identifier for succs in succ_lists
         for identifier in map(get_id, succs)], dtype=np.int64)
    tree_spans = [tree[node] for node in order]
    tree_lo_all = np.array([span.lo for span in tree_spans], dtype=np.int64)
    tree_hi_all = np.array([span.hi for span in tree_spans], dtype=np.int64)

    levels: List[List[int]] = [[] for _ in range(max(level_of.values()) + 1)]
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
        total_arcs = int(succ_counts.sum())

        if total_arcs == 0:
            # A pure-sink level: everything keeps its tree interval.
            kept_lo, kept_hi = tree_lo, tree_hi
            bounds = np.arange(count + 1, dtype=np.int64)
        else:
            # Concatenated [start, start+length) ranges — the
            # standard cumsum trick, applied twice: once to walk the
            # CSR successor lists, once to walk each successor's
            # resolved slice of the pool.
            arc_shift = np.cumsum(succ_counts) - succ_counts
            arc_pos = (np.arange(total_arcs, dtype=np.int64)
                       + np.repeat(row_start - arc_shift, succ_counts))
            succ_ids = indices[arc_pos]
            starts = start_arr[succ_ids]
            lengths = end_arr[succ_ids] - starts
            total = int(lengths.sum())
            item_shift = np.cumsum(lengths) - lengths
            gather = (np.arange(total, dtype=np.int64)
                      + np.repeat(starts - item_shift, lengths))
            arc_owner = np.repeat(np.arange(count, dtype=np.int64),
                                  succ_counts)
            los = np.concatenate([tree_lo, pool_lo[gather]])
            his = np.concatenate([tree_hi, pool_hi[gather]])
            owners = np.concatenate([
                np.arange(count, dtype=np.int64),
                np.repeat(arc_owner, lengths)])
            if count * (int(his.max()) + 1) >= 2**62:  # pragma: no cover
                # The segmented sweep keys would overflow int64; such
                # numberings only arise from astronomically large
                # gaps — take the slow path for this level.
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

    # Write-back: two bulk tolist() calls, then plain list slices —
    # no per-node numpy round trips.
    all_lo = pool_lo[:size].tolist()
    all_hi = pool_hi[:size].tolist()
    intervals = labeling.intervals
    make = IntervalSet.__new__
    for node, begin, end in zip(order, start_arr.tolist(),
                                end_arr.tolist()):
        fresh = make(IntervalSet)
        fresh._los = all_lo[begin:end]
        fresh._his = all_hi[begin:end]
        intervals[node] = fresh


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
