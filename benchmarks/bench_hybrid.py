"""Hybrid delta-overlay engine vs its two parents under mixed workloads.

Three update strategies run the *same* concrete read/write script:

* ``interval`` — the mutable dict engine: every read pays its per-query
  constant, every write is a Section 4 gap-based update.
* ``refreeze`` — flat-array reads, but the snapshot is strict: every
  write applies the gap-based update **and recompiles the frozen view**
  before the next read (the only way to keep serving from a
  :class:`~repro.core.frozen.FrozenTCIndex` under writes before the
  hybrid existed).
* ``hybrid`` — :class:`~repro.core.hybrid.HybridTCIndex` at its default
  compaction thresholds: flat-array reads corrected through the delta
  overlay, compaction amortised across write bursts.

Workload mixes are 99/1, 90/10 and 50/50 reads/writes; reported numbers
are ops/sec over the whole script and the p99 per-op latency.  Every
engine's read answers are collected and compared — a strategy only gets
a number after answering identically to the mutable engine.

The re-freeze and hybrid strategies each replay the script ``REPEATS``
times, interleaved (re-freeze, hybrid, re-freeze, hybrid, ...), and each
reports its median run: the gated ratio compares two medians taken over
the same stretch of wall time, so host drift moves both sides alike.

Run as a script to (re)generate ``BENCH_hybrid.json`` at the repo root::

    $ python benchmarks/bench_hybrid.py            # paper scale
    $ python benchmarks/bench_hybrid.py --quick    # CI-sized sanity run

Either mode exits non-zero if the hybrid fails to beat the re-freeze
strategy on the 99/1 mix — that margin is the engine's reason to exist.
The pytest wrappers below run the quick scale against a throwaway path
and hold the committed paper-scale ``BENCH_hybrid.json`` to the 5x bar.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from random import Random
from typing import List, Optional, Tuple

from repro.core.frozen import FrozenTCIndex
from repro.core.hybrid import HybridTCIndex
from repro.core.index import IntervalTCIndex
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_dag

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_hybrid.json"

#: (name, write fraction, op-budget scale) for each reported mix.  The
#: write-heavy mixes run shorter scripts: the re-freeze baseline pays a
#: full recompile per write, and a few hundred writes already pin down
#: its per-op cost precisely.
MIXES: Tuple[Tuple[str, float, float], ...] = (
    ("99/1", 0.01, 1.0),
    ("90/10", 0.10, 0.5),
    ("50/50", 0.50, 0.2),
)

#: Interleaved replays per strategy for the re-freeze/hybrid comparison;
#: each strategy reports its median run.  One replay of the quick 99/1
#: mix takes ~0.05 s per strategy; with one replay each, six back-to-back
#: quick runs on a 2-CPU VM put the ratio anywhere in 0.59x-0.92x.
REPEATS = 5


def make_script(graph: DiGraph, *, ops: int, write_fraction: float,
                seed: int) -> List[list]:
    """One concrete, replayable op list shared by every strategy.

    Writes alternate arc insertions (validated against a scratch mirror
    so every strategy applies the exact same mutations) with new-node
    insertions; reads are random ``reachable`` pairs.
    """
    rng = Random(seed)
    mirror = SetMirror(graph)
    script: List[list] = []
    next_label = len(mirror.nodes)
    writes_due = 0.0
    for _ in range(ops):
        writes_due += write_fraction
        if writes_due >= 1.0:
            writes_due -= 1.0
            op = None
            for _ in range(20):
                source, destination = rng.sample(mirror.nodes, 2)
                if mirror.can_add(source, destination):
                    op = ["add_arc", source, destination]
                    break
            if op is None:
                parent = rng.choice(mirror.nodes)
                op = ["add_node", next_label, parent]
                next_label += 1
            if rng.random() < 0.3:  # keep node churn in the write mix
                parent = rng.choice(mirror.nodes)
                op = ["add_node", next_label, parent]
                next_label += 1
            mirror.apply(op)
            script.append(op)
        else:
            script.append(["query", rng.choice(mirror.nodes),
                           rng.choice(mirror.nodes)])
    return script


class SetMirror:
    """Tiny closure mirror used only while generating applicable scripts."""

    def __init__(self, graph: DiGraph) -> None:
        self.succ = {node: set(graph.successors(node))
                     for node in graph.nodes()}
        self.nodes = sorted(self.succ)

    def can_add(self, source: int, destination: int) -> bool:
        return (source != destination
                and destination not in self.succ[source]
                and not self._reaches(destination, source))

    def _reaches(self, source: int, destination: int) -> bool:
        seen = {source}
        frontier = [source]
        while frontier:
            node = frontier.pop()
            if node == destination:
                return True
            for successor in self.succ[node]:
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)
        return False

    def apply(self, op: list) -> None:
        if op[0] == "add_arc":
            self.succ[op[1]].add(op[2])
        else:
            _, node, parent = op
            self.succ[node] = set()
            self.succ[parent].add(node)
            self.nodes.append(node)


# ----------------------------------------------------------------------
# strategies: each returns (answers, per-op seconds)
# ----------------------------------------------------------------------
def run_interval(graph: DiGraph, script: List[list]) -> Tuple[list, list]:
    index = IntervalTCIndex.build(graph.copy())
    answers, latencies = [], []
    for op in script:
        started = time.perf_counter()
        if op[0] == "query":
            answers.append(index.reachable(op[1], op[2]))
        elif op[0] == "add_arc":
            index.add_arc(op[1], op[2])
        else:
            index.add_node(op[1], parents=[op[2]])
        latencies.append(time.perf_counter() - started)
    return answers, latencies


def run_refreeze(graph: DiGraph, script: List[list]) -> Tuple[list, list]:
    index = IntervalTCIndex.build(graph.copy())
    frozen = FrozenTCIndex.from_index(index)
    answers, latencies = [], []
    for op in script:
        started = time.perf_counter()
        if op[0] == "query":
            answers.append(frozen.reachable(op[1], op[2]))
        else:
            if op[0] == "add_arc":
                index.add_arc(op[1], op[2])
            else:
                index.add_node(op[1], parents=[op[2]])
            frozen = FrozenTCIndex.from_index(index)
        latencies.append(time.perf_counter() - started)
    return answers, latencies


def run_hybrid(graph: DiGraph,
               script: List[list]) -> Tuple[list, list, HybridTCIndex]:
    hybrid = HybridTCIndex.build(graph.copy())
    answers, latencies = [], []
    for op in script:
        started = time.perf_counter()
        if op[0] == "query":
            answers.append(hybrid.reachable(op[1], op[2]))
        elif op[0] == "add_arc":
            hybrid.add_arc(op[1], op[2])
        else:
            hybrid.add_node(op[1], parents=[op[2]])
        latencies.append(time.perf_counter() - started)
    return answers, latencies, hybrid


def _median_run(runs: list) -> tuple:
    """The run with the median total time (``runs`` holds
    ``(answers, latencies, ...)`` tuples)."""
    ordered = sorted(runs, key=lambda run: sum(run[1]))
    return ordered[len(ordered) // 2]


def _p99(latencies: List[float]) -> float:
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1, (len(ordered) * 99) // 100)]


def _report(latencies: List[float]) -> dict:
    total = sum(latencies)
    return {
        "seconds": round(total, 6),
        "ops_per_sec": round(len(latencies) / total, 1),
        "p99_us": round(_p99(latencies) * 1e6, 2),
    }


def run_benchmark(*, nodes: int, degree: float, ops: int,
                  seed: int) -> dict:
    graph = random_dag(nodes, degree, seed)
    mixes = {}
    for mix_name, write_fraction, ops_scale in MIXES:
        script = make_script(graph, ops=max(200, int(ops * ops_scale)),
                             write_fraction=write_fraction,
                             seed=seed + int(write_fraction * 1000))
        interval_answers, interval_lat = run_interval(graph, script)
        refreeze_runs, hybrid_runs = [], []
        for _ in range(REPEATS):
            refreeze_runs.append(run_refreeze(graph, script))
            hybrid_runs.append(run_hybrid(graph, script))
        if any(run[0] != interval_answers for run in refreeze_runs):
            raise AssertionError(f"refreeze diverged on the {mix_name} mix")
        if any(run[0] != interval_answers for run in hybrid_runs):
            raise AssertionError(f"hybrid diverged on the {mix_name} mix")
        _, refreeze_lat = _median_run(refreeze_runs)
        _, hybrid_lat, hybrid = _median_run(hybrid_runs)
        writes = sum(1 for op in script if op[0] != "query")
        entry = {
            "ops": len(script),
            "writes": writes,
            "reads": len(script) - writes,
            "verified_identical": True,
            "hybrid_compactions": hybrid.compactions,
            "interval": _report(interval_lat),
            "refreeze": _report(refreeze_lat),
            "hybrid": _report(hybrid_lat),
        }
        entry["hybrid_vs_refreeze"] = round(
            entry["hybrid"]["ops_per_sec"] / entry["refreeze"]["ops_per_sec"],
            2)
        mixes[mix_name] = entry
    return {
        "meta": {
            "nodes": nodes,
            "degree": degree,
            "arcs": graph.num_arcs,
            "ops_per_mix": ops,
            "seed": seed,
        },
        "mixes": mixes,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="hybrid vs interval vs re-freeze under mixed workloads")
    parser.add_argument("--nodes", type=int, default=4000)
    parser.add_argument("--degree", type=float, default=2.0)
    parser.add_argument("--ops", type=int, default=6000,
                        help="operations per workload mix")
    parser.add_argument("--seed", type=int, default=1989)
    parser.add_argument("--quick", action="store_true",
                        help="reduced scale for CI (overrides --nodes/--ops)")
    parser.add_argument("--output", default=str(DEFAULT_OUTPUT))
    args = parser.parse_args(argv)

    if args.quick:
        args.nodes = min(args.nodes, 1000)
        args.ops = min(args.ops, 2000)

    result = run_benchmark(nodes=args.nodes, degree=args.degree,
                           ops=args.ops, seed=args.seed)
    Path(args.output).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    print(f"\nresults written to {args.output}")

    margin = result["mixes"]["99/1"]["hybrid_vs_refreeze"]
    if margin < 1.0:
        print(f"FAIL: hybrid is {margin}x the re-freeze strategy on the "
              f"99/1 mix (must be >= 1.0)", file=sys.stderr)
        return 1
    print(f"hybrid is {margin}x the re-freeze strategy on the 99/1 mix")
    return 0


# ----------------------------------------------------------------------
# pytest wrappers (collected via the bench_*.py pattern)
# ----------------------------------------------------------------------
def test_hybrid_beats_refreeze_on_read_heavy_mix(tmp_path):
    """Quick-scale run of the full harness; parity checked inside."""
    result = run_benchmark(nodes=800, degree=2.0, ops=1500, seed=1989)
    (tmp_path / "BENCH_hybrid.json").write_text(json.dumps(result))
    for mix_name, _, _ in MIXES:
        assert result["mixes"][mix_name]["verified_identical"]
    # test_committed_results_clear_the_5x_bar holds the paper-scale bar;
    # at smoke scale the margin is asserted loosely.
    assert result["mixes"]["99/1"]["hybrid_vs_refreeze"] >= 1.0


def test_committed_results_clear_the_5x_bar():
    """The committed paper-scale BENCH_hybrid.json: every mix answered
    identically, and the hybrid beats re-freeze at least 5x on 99/1."""
    document = json.loads(DEFAULT_OUTPUT.read_text())
    for mix_name, _, _ in MIXES:
        assert document["mixes"][mix_name]["verified_identical"]
    assert document["mixes"]["99/1"]["hybrid_vs_refreeze"] >= 5


def test_hybrid_compacts_under_write_pressure():
    result = run_benchmark(nodes=400, degree=2.0, ops=800, seed=7)
    assert result["mixes"]["50/50"]["hybrid_compactions"] > 0
    assert result["mixes"]["50/50"]["verified_identical"]


if __name__ == "__main__":
    sys.exit(main())
