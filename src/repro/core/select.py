"""Cheap graph statistics and the ``engine="auto"`` decision rule.

:func:`repro.open_index` with ``engine="auto"`` must pick a
representation *before* building anything, and the measured rule needs
only the node count.  The statistics here are all O(n + m) — node/arc
counts, average out-degree, longest-path depth, and a greedy
chain-count estimate of the width (an upper bound on the Dilworth
width — the exact width needs a matching over the closure, which would
defeat the point) — and serve ``repro stats`` and the engine bench's
report columns.  Nothing touches the transitive closure.

The decision rule is calibrated against the measured head-to-head cells
in ``BENCH_engines.json`` (``benchmarks/bench_engines.py``; build plus
mixed point/sweep query wall time, 20k-node shapes).  The measurement
is one-sided: the chain-cover engine posts the lowest total on *every*
large shape — its greedy decomposition is the cheapest build pass and a
point query is a single dict probe —

======================  ============================================  ========
regime                  BENCH_engines.json cell (total seconds)       winner
======================  ============================================  ========
deep chain              chain 0.137 / frozen 0.363 / interval 0.576   chain
bushy hierarchy         chain 0.248 / frozen 0.340 / interval 0.430   chain
bipartite (Fig. 3.6)    chain 0.032 / frozen 0.033 / interval 0.067   chain
sparse mid-depth DAG    chain 0.145 / frozen 0.268 / interval 0.402   chain
======================  ============================================  ========

— so the rule has exactly one other branch: graphs under
:data:`THRESHOLDS` ``small_nodes`` keep the updatable interval index,
because at that size every build is sub-millisecond noise and the
interval index is the only from-graph engine that accepts updates.

The engines auto never picks still earn their keep on objectives the
wall-time race does not score: ``frozen`` has vectorised batch reads
and the mmap'd RTCF restart path; ``interval`` is the only updatable
index, and its labels are smaller than chain's on ``bushy`` (232k
storage units vs 867k) and ``sparse_dag`` (111k vs 163k).  Ask for
them explicitly — ``open_index(graph, engine="frozen")``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph.digraph import DiGraph

__all__ = ["GraphStats", "THRESHOLDS", "graph_stats", "recommend_engine"]

#: The one table of ``engine="auto"`` decision constants.
#:
#: ``small_nodes``
#:     Below this, build cost is noise for every engine (the whole
#:     matrix builds in under a millisecond at 256 nodes) and the
#:     updatable interval index is the flexible default.
THRESHOLDS = {
    "small_nodes": 256,
}


@dataclass(frozen=True)
class GraphStats:
    """An O(n + m) structural summary, sufficient for engine selection.

    ``chain_width_estimate`` is the greedy first-fit chain count — an
    upper bound on the true (Dilworth) width; ``depth`` counts arcs on
    the longest directed path; ``density`` is arcs per node.
    """

    num_nodes: int
    num_arcs: int
    avg_out_degree: float
    density: float
    depth: int
    depth_ratio: float
    chain_width_estimate: int

    def as_dict(self) -> dict:
        """Flat dict for report tables."""
        return dict(self.__dict__)


def graph_stats(graph: DiGraph) -> GraphStats:
    """Compute the cheap selection statistics for ``graph``."""
    from repro.core.chain_cover import greedy_chain_decomposition
    from repro.graph.metrics import longest_path_length

    nodes = graph.num_nodes
    arcs = graph.num_arcs
    depth = longest_path_length(graph) if nodes else 0
    chains = len(greedy_chain_decomposition(graph)) if nodes else 0
    return GraphStats(
        num_nodes=nodes,
        num_arcs=arcs,
        avg_out_degree=graph.average_out_degree() if nodes else 0.0,
        density=arcs / nodes if nodes else 0.0,
        depth=depth,
        depth_ratio=depth / nodes if nodes else 0.0,
        chain_width_estimate=chains,
    )


def recommend_engine(num_nodes: int) -> str:
    """The :func:`repro.open_index` engine name ``engine="auto"`` picks
    for a graph of ``num_nodes`` nodes.

    Calibrated on ``BENCH_engines.json`` (see the module docstring's
    cell table): the chain-cover engine wins the build+query race on
    every measured large shape, so the only other branch is the
    small-graph carve-out, where updatability beats a wall-time gap
    measured in microseconds.  Returns ``"interval"`` or ``"chain"``.
    """
    if num_nodes < THRESHOLDS["small_nodes"]:
        return "interval"
    return "chain"
