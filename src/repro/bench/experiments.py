"""Experiment drivers regenerating every figure of the paper's evaluation.

Each function returns plain data (lists of dict rows or histograms) so it
can be unit-tested, pretty-printed by the ``benchmarks/`` harness, and
recorded in ``EXPERIMENTS.md``.  The mapping to the paper:

========================  ====================================================
Function                  Paper artifact
========================  ====================================================
``storage_vs_degree``     Figures 3.9 and 3.10 (with ``include_inverse``)
``storage_vs_size``       Figure 3.11
``interval_census``       Figure 3.12 (exhaustive <= 5 nodes, sampled above)
``merging_benefit``       Section 3.3, "interval merging gains < 5 %"
``worst_case_bipartite``  Figures 3.6 / 3.7
``chain_comparison``      Theorem 2 (tree cover vs. chain cover)
``tree_cover_ablation``   Design ablation: Alg1 vs. naive covers
``update_cost``           Section 4 (incremental vs. rebuild)
``query_effort``          Section 2.1/6 (lookup vs. pointer chasing)
``io_traffic``            Section 2.2 (page faults, paged stores)
========================  ====================================================
"""

from __future__ import annotations

import random
import time
from typing import Dict, Iterable, List, Optional, Sequence

from repro.baselines import (
    ChainTCIndex,
    FullTCIndex,
    InverseTCIndex,
    PointerChasingIndex,
    SchubertIndex,
)
from repro.core.index import IntervalTCIndex
from repro.core.tree_cover import POLICIES
from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    bipartite_with_intermediary,
    bipartite_worst_case,
    enumerate_dags,
    random_dag,
    random_dag_local,
    sample_dags,
)
from repro.storage.pager import BufferPool, PagedIntervalStore, PagedSuccessorStore

Row = Dict[str, object]


# ----------------------------------------------------------------------
# Figures 3.9 / 3.10 — storage vs. average degree
# ----------------------------------------------------------------------
def storage_vs_degree(num_nodes: int = 1000,
                      degrees: Sequence[float] = tuple(range(1, 11)),
                      *, seed: int = 1989, trials: int = 1,
                      include_inverse: bool = False) -> List[Row]:
    """Storage (as a multiple of the original relation) per average degree.

    The paper's observations this should reproduce: the full closure
    explodes between degree 1 and ~3 and then flattens; the compressed
    closure rises less, peaks, then *decreases* with degree, eventually
    dropping below the original relation itself; the inverse closure
    starts huge and falls fast but stays above the compressed closure.
    """
    rows: List[Row] = []
    for degree in degrees:
        accumulator = {"relation": 0, "full": 0, "compressed": 0, "inverse": 0}
        for trial in range(trials):
            graph = random_dag(num_nodes, degree, seed + 7919 * trial + round(97 * degree))
            accumulator["relation"] += graph.num_arcs
            accumulator["full"] += FullTCIndex.build(graph).storage_units
            accumulator["compressed"] += IntervalTCIndex.build(graph, gap=1).storage_units
            if include_inverse:
                accumulator["inverse"] += InverseTCIndex.build(graph).storage_units
        relation = accumulator["relation"] / trials
        row: Row = {
            "degree": degree,
            "relation": round(relation),
            "full_closure": round(accumulator["full"] / trials),
            "compressed": round(accumulator["compressed"] / trials),
            "full_multiple": accumulator["full"] / accumulator["relation"],
            "compressed_multiple": accumulator["compressed"] / accumulator["relation"],
        }
        if include_inverse:
            row["inverse"] = round(accumulator["inverse"] / trials)
            row["inverse_multiple"] = accumulator["inverse"] / accumulator["relation"]
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Figure 3.11 — storage vs. number of nodes at fixed degree
# ----------------------------------------------------------------------
def storage_vs_size(sizes: Sequence[int] = (125, 250, 500, 1000, 2000),
                    degree: float = 2.0, *, seed: int = 1989,
                    trials: int = 1, workload: str = "uniform") -> List[Row]:
    """Storage multiples per graph size at fixed average degree.

    Expected shape (Figure 3.11): the full-closure multiple grows with
    graph size while the compressed multiple grows far slower — better
    compression for larger graphs.

    ``workload`` selects the random-DAG model: ``"uniform"`` places arcs
    uniformly over all forward pairs (both curves then grow roughly in
    parallel); ``"local"`` bounds arcs to a topological window of 20,
    the regime where the paper's better-compression-at-scale claim shows
    up strongly (see EXPERIMENTS.md, E-3.11, for the calibration notes).
    """
    if workload not in ("uniform", "local"):
        raise ValueError(f"unknown workload {workload!r}")
    rows: List[Row] = []
    for size in sizes:
        accumulator = {"relation": 0, "full": 0, "compressed": 0}
        for trial in range(trials):
            trial_seed = seed + 104729 * trial + size
            if workload == "uniform":
                graph = random_dag(size, degree, trial_seed)
            else:
                graph = random_dag_local(size, degree, trial_seed, window=20)
            accumulator["relation"] += graph.num_arcs
            accumulator["full"] += FullTCIndex.build(graph).storage_units
            accumulator["compressed"] += IntervalTCIndex.build(graph, gap=1).storage_units
        rows.append({
            "nodes": size,
            "relation": round(accumulator["relation"] / trials),
            "full_closure": round(accumulator["full"] / trials),
            "compressed": round(accumulator["compressed"] / trials),
            "full_multiple": accumulator["full"] / accumulator["relation"],
            "compressed_multiple": accumulator["compressed"] / accumulator["relation"],
        })
    return rows


# ----------------------------------------------------------------------
# Figure 3.12 — interval-count census over small DAGs
# ----------------------------------------------------------------------
def interval_census(num_nodes: int = 8, *, sample: Optional[int] = 20000,
                    seed: int = 1989) -> Dict[int, int]:
    """Histogram: total interval count -> number of DAGs.

    The paper enumerates all 8-node DAGs; that is 2^28 fixed-order graphs,
    so for ``num_nodes > 5`` we draw ``sample`` graphs uniformly instead
    (see DESIGN.md, "Substitutions").  Pass ``sample=None`` to force
    exhaustive enumeration (practical only for ``num_nodes <= 5``).

    The expected shape: sharply concentrated just above ``n`` intervals,
    with the quadratic worst cases (Figure 3.6) vanishingly rare.
    """
    histogram: Dict[int, int] = {}
    if sample is None:
        graphs: Iterable[DiGraph] = enumerate_dags(num_nodes)
    else:
        graphs = sample_dags(num_nodes, sample, seed)
    for graph in graphs:
        index = IntervalTCIndex.build(graph, gap=1)
        count = index.num_intervals
        histogram[count] = histogram.get(count, 0) + 1
    return histogram


# ----------------------------------------------------------------------
# Section 3.3 — benefit of adjacent-interval merging
# ----------------------------------------------------------------------
def merging_benefit(sizes: Sequence[int] = (100, 200, 400),
                    degrees: Sequence[float] = (1, 2, 3, 5),
                    *, seed: int = 1989) -> List[Row]:
    """Interval counts with and without merging, per (size, degree) cell.

    The paper: "the additional compression obtained was rather small,
    usually less than 5%".
    """
    rows: List[Row] = []
    for size in sizes:
        for degree in degrees:
            graph = random_dag(size, degree, seed + size * 31 + round(degree * 7))
            index = IntervalTCIndex.build(graph, gap=1)
            before = index.num_intervals
            merged_total = sum(len(interval_set.merged())
                               for interval_set in index.intervals.values())
            ordered_total = IntervalTCIndex.build(
                graph, gap=1, merge=True, merge_ordering=True).num_intervals
            saving = 0.0 if before == 0 else 100.0 * (before - merged_total) / before
            ordered_saving = 0.0 if before == 0 else \
                100.0 * (before - ordered_total) / before
            rows.append({
                "nodes": size,
                "degree": degree,
                "intervals": before,
                "merged_intervals": merged_total,
                "saving_percent": saving,
                "ordered_merged": ordered_total,
                "ordered_saving_percent": ordered_saving,
            })
    return rows


# ----------------------------------------------------------------------
# Figures 3.6 / 3.7 — the bipartite worst case and its fix
# ----------------------------------------------------------------------
def worst_case_bipartite(num_sources: int = 15, num_sinks: int = 16) -> List[Row]:
    """Interval counts for K(m, k) with and without the intermediary node.

    K(m, k) forces about ``(m-1)(k-1) + extras`` intervals (Theta(n^2/4)
    at the balanced point); inserting one hub node (Figure 3.7) restores
    O(n).
    """
    direct = IntervalTCIndex.build(bipartite_worst_case(num_sources, num_sinks), gap=1)
    hubbed = IntervalTCIndex.build(
        bipartite_with_intermediary(num_sources, num_sinks), gap=1)
    total_nodes = num_sources + num_sinks
    return [
        {"graph": f"K({num_sources},{num_sinks}) direct", "nodes": total_nodes,
         "intervals": direct.num_intervals, "storage_units": direct.storage_units},
        {"graph": f"K({num_sources},{num_sinks}) + hub", "nodes": total_nodes + 1,
         "intervals": hubbed.num_intervals, "storage_units": hubbed.storage_units},
    ]


# ----------------------------------------------------------------------
# Theorem 2 — tree cover vs. chain cover
# ----------------------------------------------------------------------
def chain_comparison(sizes: Sequence[int] = (50, 100, 200),
                     degrees: Sequence[float] = (1.5, 2, 3),
                     *, seed: int = 1989,
                     include_schubert: bool = True) -> List[Row]:
    """Interval count vs. chain-entry count (greedy and optimal chains).

    Theorem 2 predicts ``intervals <= optimal chain entries`` on every
    graph; the Schubert multi-hierarchy storage is reported alongside as
    the second related-work comparator.
    """
    rows: List[Row] = []
    for size in sizes:
        for degree in degrees:
            graph = random_dag(size, degree, seed + size * 13 + round(degree * 11))
            index = IntervalTCIndex.build(graph, gap=1)
            greedy = ChainTCIndex.build(graph, "greedy")
            optimal = ChainTCIndex.build(graph, "optimal")
            row: Row = {
                "nodes": size,
                "degree": degree,
                "intervals": index.num_intervals,
                "chain_entries_greedy": greedy.num_entries,
                "chain_entries_optimal": optimal.num_entries,
                "chains_optimal": optimal.num_chains,
            }
            if include_schubert:
                schubert = SchubertIndex.build(graph)
                row["schubert_intervals"] = (
                    schubert.num_hierarchies * graph.num_nodes)
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Ablation — does the Alg1 cover choice matter?
# ----------------------------------------------------------------------
def tree_cover_ablation(sizes: Sequence[int] = (100, 300),
                        degrees: Sequence[float] = (2, 4),
                        *, seed: int = 1989) -> List[Row]:
    """Interval counts under every tree-cover policy; Alg1 must be minimal."""
    rows: List[Row] = []
    for size in sizes:
        for degree in degrees:
            graph = random_dag(size, degree, seed + size * 17 + round(degree * 3))
            row: Row = {"nodes": size, "degree": degree}
            for policy in POLICIES:
                index = IntervalTCIndex.build(graph, policy=policy, gap=1, rng=seed)
                row[policy] = index.num_intervals
            rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Section 4 — incremental update cost vs. rebuild
# ----------------------------------------------------------------------
def update_cost(num_nodes: int = 500, degree: float = 2.0, *,
                batch: int = 100, seed: int = 1989,
                gap: int = 32) -> List[Row]:
    """Wall-clock cost of incremental maintenance vs. rebuild-per-update.

    Three write workloads from Section 4.1: new-node insertion (tree
    arc), hierarchy refinement (a new node under two parents), and
    non-tree arc insertion between existing nodes.  One from Section 4.2,
    non-tree arc deletion, which recomputes every node's intervals in one
    propagation pass and so is not expected to beat a rebuild by much.
    """
    rng = random.Random(seed)

    def timed(function) -> float:
        start = time.perf_counter()
        function()
        return time.perf_counter() - start

    # -- incremental: one index absorbs the whole batch ---------------
    base = random_dag(num_nodes, degree, seed)
    index = IntervalTCIndex.build(base, gap=gap)
    nodes = list(base.nodes())
    non_tree = sorted(arc for arc in base.arcs()
                      if not index.cover.is_tree_arc(*arc))
    doomed = rng.sample(non_tree, min(batch, len(non_tree)))

    def incremental_inserts() -> None:
        for step in range(batch):
            index.add_node(("new", step), parents=[rng.choice(nodes)])

    def incremental_refinements() -> None:
        for step in range(batch):
            index.add_node(("refined", step), parents=rng.sample(nodes, 2))

    def incremental_arcs() -> None:
        added = 0
        while added < batch:
            source, destination = rng.choice(nodes), rng.choice(nodes)
            if source == destination or index.reachable(destination, source) \
                    or index.graph.has_arc(source, destination):
                continue
            index.add_arc(source, destination)
            added += 1

    def incremental_deletions() -> None:
        for arc in doomed:
            index.remove_arc(*arc)

    # -- rebuild: recompute from scratch after every update ------------
    rebuild_graph = random_dag(num_nodes, degree, seed)
    rebuild_nodes = list(rebuild_graph.nodes())
    rebuild_rng = random.Random(seed)

    def rebuild_inserts() -> None:
        for step in range(batch):
            parent = rebuild_rng.choice(rebuild_nodes)
            rebuild_graph.add_node(("new", step))
            rebuild_graph.add_arc(parent, ("new", step))
            IntervalTCIndex.build(rebuild_graph, gap=gap)

    def rebuild_deletions() -> None:
        for arc in doomed:
            rebuild_graph.remove_arc(*arc)
            IntervalTCIndex.build(rebuild_graph, gap=gap)

    rebuild_seconds = timed(rebuild_inserts)
    cases = [  # in order: each run starts from the state the last one left
        (f"insert {batch} new nodes", timed(incremental_inserts),
         rebuild_seconds),
        (f"refine: {batch} nodes under 2 parents",
         timed(incremental_refinements), rebuild_seconds),
        (f"insert {batch} non-tree arcs", timed(incremental_arcs),
         rebuild_seconds),
        (f"delete {len(doomed)} non-tree arcs", timed(incremental_deletions),
         timed(rebuild_deletions))]
    return [{"workload": workload, "incremental_s": incremental,
             "rebuild_s": rebuild,
             "speedup": rebuild / incremental if incremental else float("inf")}
            for workload, incremental, rebuild in cases]


# ----------------------------------------------------------------------
# Sections 2.1 / 6 — query effort: lookup vs. pointer chasing
# ----------------------------------------------------------------------
def query_effort(num_nodes: int = 1000, degree: float = 3.0, *,
                 queries: int = 2000, seed: int = 1989) -> List[Row]:
    """Per-query work: index range comparisons vs. DFS nodes visited."""
    graph = random_dag(num_nodes, degree, seed)
    index = IntervalTCIndex.build(graph, gap=1)
    chaser = PointerChasingIndex.build(graph)
    rng = random.Random(seed)
    nodes = list(graph.nodes())
    pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(queries)]

    start = time.perf_counter()
    index_answers = [index.reachable(u, v) for u, v in pairs]
    index_seconds = time.perf_counter() - start

    chaser.stats.reset()
    start = time.perf_counter()
    chase_answers = [chaser.reachable(u, v) for u, v in pairs]
    chase_seconds = time.perf_counter() - start
    assert index_answers == chase_answers

    return [{
        "queries": queries,
        "index_s": index_seconds,
        "pointer_chasing_s": chase_seconds,
        "speedup": chase_seconds / index_seconds if index_seconds else float("inf"),
        "dfs_nodes_visited": chaser.stats.nodes_visited,
        "dfs_nodes_per_query": chaser.stats.nodes_visited / queries,
        "positive_fraction": sum(index_answers) / queries,
    }]


# ----------------------------------------------------------------------
# Extension — compression profile across graph families
# ----------------------------------------------------------------------
def compression_by_workload(num_nodes: int = 300, degree: float = 2.0, *,
                            seed: int = 1989,
                            names: Optional[Sequence[str]] = None) -> List[Row]:
    """Structural profile + compression for every registered workload.

    Shows *why* graphs compress: deep/narrow families sit near the
    2-units-per-node tree bound, wide/shallow ones drift toward the
    Figure 3.6 worst case.
    """
    from repro.bench.workloads import make_workload, workload_names
    from repro.graph.metrics import profile

    rows: List[Row] = []
    for name in (names if names is not None else workload_names()):
        graph = make_workload(name, num_nodes, degree, seed)
        shape = profile(graph)
        index = IntervalTCIndex.build(graph, gap=1)
        closure_pairs = shape.reachable_pairs
        rows.append({
            "workload": name,
            "nodes": shape.num_nodes,
            "arcs": shape.num_arcs,
            "depth": shape.depth,
            "width": shape.level_width,
            "closure_pairs": closure_pairs,
            "intervals": index.num_intervals,
            "units": index.storage_units,
            "units_per_node": index.storage_units / max(1, shape.num_nodes),
            "compression": closure_pairs / index.storage_units
            if index.storage_units else float("inf"),
        })
    return rows


# ----------------------------------------------------------------------
# Section 2.2 — I/O traffic through the simulated buffer pool
# ----------------------------------------------------------------------
def io_traffic(num_nodes: int = 500, degree: float = 3.0, *,
               queries: int = 2000, pool_pages: int = 8,
               page_capacity: int = 128, seed: int = 1989) -> List[Row]:
    """Page faults answering the same query load from both paged layouts."""
    graph = random_dag(num_nodes, degree, seed)
    closure = FullTCIndex.build(graph)
    index = IntervalTCIndex.build(graph, gap=1)
    full_pool = BufferPool(pool_pages)
    interval_pool = BufferPool(pool_pages)
    full_store = PagedSuccessorStore(closure, list(graph.nodes()),
                                     pool=full_pool, page_capacity=page_capacity)
    interval_store = PagedIntervalStore(index, pool=interval_pool,
                                        page_capacity=page_capacity)
    rng = random.Random(seed)
    nodes = list(graph.nodes())
    for _ in range(queries):
        source, destination = rng.choice(nodes), rng.choice(nodes)
        assert full_store.reachable(source, destination) == \
            interval_store.reachable(source, destination)
    return [
        {"layout": "full closure", "pages": full_store.num_pages,
         "units": full_store.total_units,
         "page_faults": full_pool.counters.page_faults,
         "hit_ratio": full_pool.counters.hit_ratio},
        {"layout": "compressed closure", "pages": interval_store.num_pages,
         "units": interval_store.total_units,
         "page_faults": interval_pool.counters.page_faults,
         "hit_ratio": interval_pool.counters.hit_ratio},
    ]
