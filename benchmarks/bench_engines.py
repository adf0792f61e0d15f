"""Head-to-head engine benchmark behind ``open_index(engine="auto")``.

Four graph shapes — the regimes the ``engine="auto"`` decision rule in
:mod:`repro.core.select` must tell apart — against the three from-graph
engine families:

=================  =====================================================
shape              why it is in the matrix
=================  =====================================================
``deep_chain``     a single path: the best case for chain-cover labels
                   (one chain, one dict probe per query)
``bushy``          an IS-A hierarchy (Section 2.1 workload,
                   ``random_hierarchy``): moderate depth, overlapping
                   parents — the paper's home turf
``bipartite``      Figure 3.6's worst case: depth 1, Θ(n²/4) closure in
                   every scheme — constants decide
``sparse_dag``     a low-degree random DAG (``first_parent`` regime):
                   shallow, fragmented chains
=================  =====================================================

Each cell builds the engine once and times a seeded mixed query load
(point ``reachable`` pairs + ``successors`` sweeps), emitting
``BENCH_engines.json``.  ``total_seconds`` (build + points + successor
sweeps) is the race the ``auto`` rule is judged by.  Beside it, each
cell times ``predecessors`` over the same sweep nodes
(``predecessor_sweep_seconds``; ``first_predecessor_seconds`` is the
first call alone, which pays any lazily built reverse structure) and
counts ``reachable_from_set`` answers over groups of 8 sweep nodes
(``semijoin_rows``); every count enters the cross-engine parity check.
``storage_units`` is one unit in every engine, the paper's Section 3.3
accounting: two stored numbers per interval or chain entry.  The frozen engine's buffer footprint rides along as
``nbytes``.  The pytest wrapper checks the *committed* file still backs
the auto-selection rule: :func:`repro.recommend_engine` must name the
measured-fastest engine (by total = build + query wall time) on at
least three of the four shapes.

Run ``python benchmarks/bench_engines.py`` for the full matrix or
``--smoke`` for the reduced CI scale.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import time
from pathlib import Path
from random import Random
from typing import Callable, Dict, List, Optional

from repro import open_index
from repro.core.chain_cover import ChainCoverIndex
from repro.core.index import IntervalTCIndex
from repro.core.select import graph_stats, recommend_engine
from repro.graph.digraph import DiGraph
from repro.graph.generators import (bipartite_worst_case, path_graph,
                                    random_dag, random_hierarchy)

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_engines.json"

#: The from-graph engine families `open_index` can pick between, each
#: built the way `open_index` builds it.
ENGINE_BUILDERS: Dict[str, Callable[[DiGraph], object]] = {
    "interval": lambda graph: IntervalTCIndex.build(graph),
    "frozen": lambda graph: open_index(graph, engine="frozen"),
    "chain": ChainCoverIndex.build,
}


def _shapes(scale: int) -> Dict[str, Callable[[], DiGraph]]:
    side = max(2, int(scale ** 0.5))
    return {
        "deep_chain": lambda: path_graph(scale),
        "bushy": lambda: random_hierarchy(scale, Random(1989)),
        "bipartite": lambda: bipartite_worst_case(side, side),
        "sparse_dag": lambda: random_dag(scale, 1.5, 1989),
    }


def _query_load(graph: DiGraph, pairs: int, sweeps: int):
    rng = Random(7)
    nodes = sorted(graph.nodes(), key=repr)
    return ([(rng.choice(nodes), rng.choice(nodes)) for _ in range(pairs)],
            rng.sample(nodes, min(sweeps, len(nodes))))


def run_cell(name: str, graph: DiGraph, pairs, sweeps) -> dict:
    builder = ENGINE_BUILDERS[name]
    gc.collect()
    started = time.perf_counter()
    engine = builder(graph)
    build_seconds = time.perf_counter() - started

    started = time.perf_counter()
    answers = [engine.reachable(s, d) for s, d in pairs]
    point_seconds = time.perf_counter() - started

    started = time.perf_counter()
    sweep_sizes = [len(engine.successors(node)) for node in sweeps]
    sweep_seconds = time.perf_counter() - started

    # Reverse sweeps over the same nodes.  The first call pays any
    # one-time reverse structure (the chain engine's position lists).
    marks = [time.perf_counter()]
    predecessor_sizes = []
    for node in sweeps:
        predecessor_sizes.append(len(engine.predecessors(node)))
        marks.append(time.perf_counter())

    # Forward semijoins over groups of 8 sweep nodes: the snapshot
    # engines' gathered-run path, checked for parity, outside the race.
    semijoin_sizes = [len(engine.reachable_from_set(sweeps[start:start + 8]))
                      for start in range(0, len(sweeps), 8)]

    storage = engine.stats()
    payload = storage.as_dict() if hasattr(storage, "as_dict") else storage
    # Frozen reports no storage_units: count its coalesced runs the way
    # IntervalTCIndex.storage_units counts intervals, two end points each.
    storage_units = (payload["storage_units"] if "storage_units" in payload
                     else 2 * payload["num_intervals"])
    return {
        "engine": name,
        "build_seconds": round(build_seconds, 6),
        "point_query_seconds": round(point_seconds, 6),
        "successor_sweep_seconds": round(sweep_seconds, 6),
        "predecessor_sweep_seconds": round(marks[-1] - marks[0], 6),
        "first_predecessor_seconds": round(
            marks[1] - marks[0] if sweeps else 0.0, 6),
        "total_seconds": round(
            build_seconds + point_seconds + sweep_seconds, 6),
        "reachable_fraction": round(sum(answers) / max(len(answers), 1), 4),
        "sweep_result_rows": sum(sweep_sizes),
        "predecessor_rows": sum(predecessor_sizes),
        "semijoin_rows": sum(semijoin_sizes),
        "storage_units": storage_units,
        "nbytes": payload.get("nbytes"),
    }


def run_shape(shape: str, make_graph, *, pairs: int, sweeps: int) -> dict:
    graph = make_graph()
    stats = graph_stats(graph)
    recommended = recommend_engine(stats.num_nodes)
    pair_load, sweep_load = _query_load(graph, pairs, sweeps)
    cells = [run_cell(name, graph, pair_load, sweep_load)
             for name in ENGINE_BUILDERS]
    # Cross-engine parity on the sampled load: every cell must agree on
    # how many pairs were reachable and how many successor, predecessor
    # and semijoin rows came back.
    fractions = {cell["reachable_fraction"] for cell in cells}
    rows = {(cell["sweep_result_rows"], cell["predecessor_rows"],
             cell["semijoin_rows"])
            for cell in cells}
    if len(fractions) != 1 or len(rows) != 1:
        raise AssertionError(
            f"engines diverged on shape {shape!r}: {cells}")
    fastest = min(cells, key=lambda cell: cell["total_seconds"])
    return {
        "shape": shape,
        "graph": stats.as_dict(),
        "recommended_engine": recommended,
        "fastest_engine": fastest["engine"],
        "auto_matches_fastest": recommended == fastest["engine"],
        "engines": cells,
    }


def run_matrix(scale: int, *, pairs: int, sweeps: int) -> dict:
    # numpy loads on first use; load it here so its one-time import
    # (~0.13 s) is not charged to whichever cell builds first.
    import numpy  # noqa: F401
    shapes = [run_shape(shape, make_graph, pairs=pairs, sweeps=sweeps)
              for shape, make_graph in _shapes(scale).items()]
    return {
        "meta": {"scale": scale, "pairs": pairs, "sweeps": sweeps,
                 "seed": 1989, "cpu_count": os.cpu_count()},
        "shapes": shapes,
        "auto_agreement": sum(
            1 for shape in shapes if shape["auto_matches_fastest"]),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="engine head-to-head: build + query wall time per "
                    "graph shape, backing the engine='auto' rule")
    parser.add_argument("--scale", type=int, default=20_000,
                        help="nodes per shape (bipartite uses sqrt per "
                             "side)")
    parser.add_argument("--pairs", type=int, default=2000,
                        help="random reachable() pairs per cell")
    parser.add_argument("--sweeps", type=int, default=200,
                        help="successors() and predecessors() sweeps "
                             "per cell")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced scale for CI (overrides --scale)")
    parser.add_argument("--output", default=str(DEFAULT_OUTPUT))
    args = parser.parse_args(argv)

    if args.smoke:
        args.scale = 2000
        args.pairs = min(args.pairs, 400)
        args.sweeps = min(args.sweeps, 50)

    result = run_matrix(args.scale, pairs=args.pairs, sweeps=args.sweeps)
    if args.smoke:
        # Smoke runs validate the harness (parity, shape coverage), not
        # the committed numbers — don't overwrite the real matrix.
        print(json.dumps(result, indent=2))
        print("\nsmoke run: results not written")
        return 0
    Path(args.output).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    print(f"\nresults written to {args.output}")
    return 0


# ----------------------------------------------------------------------
# pytest wrappers (collected via the bench_*.py pattern)
# ----------------------------------------------------------------------
def test_bench_engines_smoke():
    """Reduced-scale matrix: all cells run, engines agree on answers."""
    result = run_matrix(1200, pairs=300, sweeps=40)
    assert len(result["shapes"]) == 4
    for shape in result["shapes"]:
        assert len(shape["engines"]) == len(ENGINE_BUILDERS)
        assert shape["recommended_engine"] in ENGINE_BUILDERS


def test_committed_results_back_the_auto_rule():
    """The committed BENCH_engines.json must justify recommend_engine.

    The acceptance bar: auto names the measured-fastest engine on at
    least 3 of the 4 shapes (the remaining shape may be a near-tie
    where the rule prefers the more flexible engine).
    """
    if not DEFAULT_OUTPUT.exists():
        import pytest
        pytest.skip("BENCH_engines.json not generated yet")
    document = json.loads(DEFAULT_OUTPUT.read_text())
    shapes = document["shapes"]
    assert len(shapes) >= 4
    assert all(len(shape["engines"]) == len(ENGINE_BUILDERS)
               for shape in shapes)
    assert document["auto_agreement"] >= 3


if __name__ == "__main__":
    raise SystemExit(main())
