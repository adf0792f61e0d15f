"""In-process workloads: ``build`` and ``query``.

Both call the library through its public functions and time only those
calls.  Answers are checked against the benchmark's own BFS oracle after
each timed block, outside the timers.
"""

from __future__ import annotations

import gc
import hashlib
import time
from pathlib import Path
from typing import Dict, List

from common import (HostGauge, Oracle, Result, fast_time, make_dag,
                    make_oracle, median, own_peak_rss_mb)
from repro import open_index
from repro.core.index import DEFAULT_GAP, IntervalTCIndex
from repro.core.labeling import assign_postorder
from repro.core.propagation import run_propagation
from repro.core.serialize import save_frozen_index
from repro.core.tree_cover import build_tree_cover
from repro.graph.io import load_edge_list

#: Build options of every snapshot the benchmark makes: the O(n)
#: tree-cover policy and the numpy propagation kernel, the configuration
#: that serves large graphs.
POLICY = "first_parent"
PROPAGATION = "vectorized"

clock = time.perf_counter


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _build(edges: Path, rtcf: Path, probe):
    """One build op, edge list to a verified first query, untraced."""
    started = clock()
    frozen = open_index(str(edges), engine="frozen", policy=POLICY,
                        propagation=PROPAGATION)
    save_frozen_index(frozen, str(rtcf), format="rtcf")
    engine = open_index(str(rtcf))
    answer = engine.reachable(probe[0], probe[1])
    return clock() - started, engine, answer


def _build_traced(edges: Path, rtcf: Path, probe):
    """The same op with a span around each stage's public call.

    Returns the op's wall time, the stage spans in pipeline order, the
    opened engine, the probe's answer and the intervals per node.
    """
    spans = []

    def span(call, *args, **kwargs):
        started = clock()
        out = call(*args, **kwargs)
        spans.append(clock() - started)
        return out

    started = clock()
    graph = span(load_edge_list, edges)
    cover = span(build_tree_cover, graph, POLICY)
    labeling = span(assign_postorder, cover, DEFAULT_GAP)
    span(run_propagation, graph, cover, labeling, PROPAGATION)
    index = span(IntervalTCIndex, graph, cover, labeling, policy=POLICY)
    frozen = span(index.freeze)
    # ``open_index`` drops the mutable index once frozen; holding it (and
    # its graph, cover and labeling) through the later stages made them
    # ~8% slower than in the untraced build.
    per_node = labeling.total_intervals / len(graph)
    del graph, cover, labeling, index
    span(save_frozen_index, frozen, str(rtcf), format="rtcf")
    engine = span(open_index, str(rtcf))
    answer = span(engine.reachable, probe[0], probe[1])
    total = clock() - started
    return total, spans, engine, answer, per_node


#: Distinct graphs each build run cycles through.  One graph's
#: intervals per node vary ~9% (IQR/median) between seeds at 1k nodes;
#: the median over eight graphs varies about a third as much.
GRAPHS = 8

#: Cycles over all graphs, half traced and half untraced, that each
#: traced run makes at least: fastest against fastest, five of each
#: read 1.06-1.12 on a slow host where fourteen of each read 1.02.
LEDGER_CYCLES = 20

#: Stage names of the traced build, in pipeline order.
STAGES = ("graph.load", "core.tree_cover", "core.labeling",
          "core.propagation", "core.index", "core.freeze",
          "core.rtcf_write", "core.rtcf_open", "core.first_query")


def _warm_up(workdir: Path) -> None:
    """Build a tiny graph once so lazy imports land outside the timers."""
    dag = make_dag(64, 0, "warm")
    edges = workdir / "warm.edges"
    dag.write(edges)
    _, engine, _ = _build(edges, workdir / "warm.rtcf", (dag.nodes[0],) * 2)
    engine.close()


class _Graph:
    """One graph of a build run: its files, its BFS sample and its builds."""

    def __init__(self, seed: int, number: int, nodes: int,
                 workdir: Path) -> None:
        self.dag = make_dag(nodes, seed, f"build{number}")
        self.edges = workdir / f"build{number}.edges"
        self.rtcf = workdir / f"build{number}.rtcf"
        self.dag.write(self.edges)
        self.oracle = make_oracle(self.dag, seed, sources=16, targets=0,
                                  pairs_per_source=4)
        self.probe = self.oracle.pairs[0]
        self.untraced: List[float] = []
        self.traced: List[float] = []
        self.stages: List[List[float]] = []
        self.digests = set()
        self.per_node = 0.0

    def build(self, traced: bool) -> bool:
        """Build once, timed; True when every sampled answer is right."""
        if traced:
            total, stages, engine, answer, self.per_node = _build_traced(
                self.edges, self.rtcf, self.probe)
            self.traced.append(total)
            self.stages.append(stages)
        else:
            total, engine, answer = _build(self.edges, self.rtcf, self.probe)
            self.untraced.append(total)
        pairs = self.oracle.pairs
        got = engine.reachable_many([(u, v) for u, v, _ in pairs])
        engine.close()
        self.digests.add(_digest(self.rtcf))
        return (bool(answer) == self.probe[2]
                and [bool(x) for x in got] == [want for _, _, want in pairs])


def build(seed: int, seconds: float, workdir: Path, *, trace: bool,
          nodes: int) -> Result:
    """Build each of ``GRAPHS`` graphs in turn, full cycles, for ``seconds``.

    A graph's build time is the ``fast_time`` of its untraced builds,
    and ``latency_ms`` the median over the graphs, scaled by the run's
    ``HostGauge`` like every time this workload reports (see
    ``perfbench/README.md`` for why not a plain median).

    Set-up is loading every edge list.  It is repeated before every
    cycle, and ``setup_s`` is the median: set-ups bunched at the start
    would all land in one state of the host.  Traced runs alternate
    traced and untraced cycles, at least ``LEDGER_CYCLES`` in all, so
    the stage ledger can be checked against untraced builds of the
    same graphs.
    """
    graphs = [_Graph(seed, number, nodes, workdir) for number in range(GRAPHS)]
    result = Result()
    gauge = HostGauge()
    _warm_up(workdir)

    setup = []
    cycles = 0
    deadline = clock() + seconds
    while (clock() < deadline or cycles == 0
           or (trace and (cycles % 2 or cycles < LEDGER_CYCLES))):
        gc.collect()
        started = clock()
        for graph in graphs:
            load_edge_list(graph.edges)
        setup.append(clock() - started)
        traced = trace and cycles % 2 == 0
        for graph in graphs:
            gauge.tick()
            gc.collect()
            result.attempted += 1
            if not graph.build(traced):
                result.failed += 1
        cycles += 1
    for number, graph in enumerate(graphs):
        if len(graph.digests) != 1:
            result.failed += 1
            result.notes.append(f"FLAG build: graph {number} wrote "
                                f"{len(graph.digests)} distinct RTCF files")

    scale = gauge.scale()
    measured_s = median([fast_time(graph.untraced) for graph in graphs])
    build_s = measured_s * scale
    arcs = median([len(graph.dag.arcs) for graph in graphs])
    result.metrics = {
        "setup_s": median(setup) * scale,
        "peak_rss_mb": own_peak_rss_mb(),
        "latency_ms": build_s * 1e3,
        "throughput_per_s": arcs / build_s,
    }
    every = [t for graph in graphs for t in graph.untraced]
    result.notes.append(
        f"build: {cycles} cycles over {GRAPHS} graphs; measured build "
        f"{measured_s * 1e3:.1f} ms at the lower deciles, untraced builds "
        f"fastest {min(every):.3f}, median {median(every):.3f}, slowest "
        f"{max(every):.3f} s; host gauge scale {scale:.3f} over "
        f"{len(gauge.times)} ticks")
    if trace:
        layers: Dict[str, float] = {}
        for index, name in enumerate(STAGES):
            value = scale * median([fast_time([stages[index]
                                               for stages in graph.stages])
                                    for graph in graphs])
            if name in ("core.rtcf_open", "core.first_query"):
                layers[f"{name}_ms"] = value * 1e3
            else:
                layers[f"{name}_s"] = value
        layers["core.intervals_per_node"] = median(
            [graph.per_node for graph in graphs])
        layers["core.snapshot_mb"] = median(
            [graph.rtcf.stat().st_size / 1e6 for graph in graphs])
        # Fastest against fastest, graph by graph: host slowdowns only
        # ever add time, and they swing single builds by far more than
        # the 5% the ledger check allows.
        untraced = sum(min(graph.untraced) for graph in graphs)
        layers["build.stage_sum_ratio"] = sum(
            min(sum(stages) for stages in graph.stages)
            for graph in graphs) / untraced
        layers["build.trace_overhead_ratio"] = sum(
            min(graph.traced) for graph in graphs) / untraced
        ratio = layers["build.stage_sum_ratio"]
        if not 0.95 <= ratio <= 1.05:
            result.notes.append(f"FLAG build: stages sum to {ratio:.3f} of "
                                f"the untraced build, outside 0.95-1.05")
        result.layers = layers
    return result


# ----------------------------------------------------------------------
# query
# ----------------------------------------------------------------------
#: One round of the fixed op mix, run against each engine in turn:
#: (op name, calls per round).
MIX = (("reachable", 64), ("reachable_many", 1), ("successors", 1),
       ("predecessors", 1), ("reachable_from_set", 1))
BATCH = 256
SEMIJOIN_SOURCES = 8


class _Round:
    """The inputs and expected answers of round ``number``."""

    def __init__(self, oracle: Oracle, number: int) -> None:
        pairs = oracle.pairs
        sources = list(oracle.descendants)
        targets = list(oracle.ancestors)
        count = MIX[0][1]
        start = number * count % len(pairs)
        self.single = [pairs[(start + i) % len(pairs)] for i in range(count)]
        start = number * BATCH % len(pairs)
        self.batch = [pairs[(start + i) % len(pairs)] for i in range(BATCH)]
        self.source = sources[number % len(sources)]
        self.target = targets[number % len(targets)]
        start = number * SEMIJOIN_SOURCES % len(sources)
        self.group = [sources[(start + i) % len(sources)]
                      for i in range(SEMIJOIN_SOURCES)]

    def run(self, engine):
        """Run the mix once: the answers, and each op group's wall time."""
        marks = [clock()]
        single = [engine.reachable(u, v) for u, v, _ in self.single]
        marks.append(clock())
        batch = engine.reachable_many([(u, v) for u, v, _ in self.batch])
        marks.append(clock())
        forward = engine.successors(self.source)
        marks.append(clock())
        backward = engine.predecessors(self.target)
        marks.append(clock())
        union = engine.reachable_from_set(self.group)
        marks.append(clock())
        times = {name: after - before
                 for (name, _), before, after in zip(MIX, marks, marks[1:])}
        return [single, batch, forward, backward, union], times

    def wrong(self, answers: list, oracle: Oracle) -> int:
        """How many of the round's ops answered differently from BFS."""
        single, batch, forward, backward, union = answers
        expected_union = set().union(
            *(oracle.descendants[source] for source in self.group))
        bad = sum(bool(got) != want
                  for got, (_, _, want) in zip(single, self.single))
        bad += [bool(got) for got in batch] != [want for _, _, want in self.batch]
        bad += set(forward) != oracle.descendants[self.source]
        bad += set(backward) != oracle.ancestors[self.target]
        bad += set(union) != expected_union
        return bad


#: Distinct rounds of a query run, repeated in turn.
ROUNDS = 64

#: Ops per engine in one round, counting a batch or a semijoin as one op.
OPS_PER_ROUND = sum(count for _, count in MIX)


def query(seed: int, seconds: float, workdir: Path, *, trace: bool,
          setups: int, nodes: int) -> Result:
    """A single-threaded closed loop over the fixed mix on two engines:
    the mmap'd RTCF snapshot and the engine ``open_index`` picks for the
    graph (chain cover at this size).

    Set-up builds both engines.  The first set-up comes before the
    window and the others at even intervals inside it, each replacing
    the engines, so their median samples the host across the window.
    """
    dag = make_dag(nodes, seed, "query")
    edges = workdir / "query.edges"
    dag.write(edges)
    oracle = make_oracle(dag, seed, sources=64, targets=64,
                         pairs_per_source=16)
    rtcf = workdir / "query.rtcf"
    result = Result()
    gauge = HostGauge()
    _warm_up(workdir)

    setup: List[float] = []

    def set_up():
        gc.collect()
        started = clock()
        auto = open_index(str(edges))
        frozen = open_index(str(edges), engine="frozen", policy=POLICY,
                            propagation=PROPAGATION)
        save_frozen_index(frozen, str(rtcf), format="rtcf")
        mapped = open_index(str(rtcf))
        setup.append(clock() - started)
        return {"rtcf": mapped, "chain": auto}

    engines = set_up()
    kind = engines["chain"].capabilities().kind
    if kind != "chain":
        result.notes.append(f"query: open_index picked {kind!r}, not chain; "
                            f"core.chain.* measures {kind!r}")

    rounds = [_Round(oracle, number) for number in range(ROUNDS)]
    # Per distinct round: its wall times, and per engine its op groups'.
    round_times: List[List[float]] = [[] for _ in rounds]
    group_times = {name: [[] for _ in rounds] for name in engines}
    window = clock()
    deadline = window + seconds
    number = 0
    while clock() < deadline or number < len(rounds):
        if (len(setup) < setups
                and clock() >= window + seconds * len(setup) / setups):
            engines["rtcf"].close()
            engines = set_up()
        index = number % len(rounds)
        work = rounds[index]
        number += 1
        answers = {}
        started = clock()
        for name, engine in engines.items():
            answers[name], times = work.run(engine)
            group_times[name][index].append(times)
        round_times[index].append(clock() - started)
        for name in engines:
            result.attempted += OPS_PER_ROUND
            result.failed += work.wrong(answers[name], oracle)
        gauge.tick()
    engines["rtcf"].close()

    # Each round's ``fast_time``, summed over the rounds: the whole mix,
    # scaled by the run's ``HostGauge`` like every time reported here.
    scale = gauge.scale()
    measured_s = sum(fast_time(times) for times in round_times)
    mix_s = measured_s * scale
    ops = OPS_PER_ROUND * len(engines) * len(rounds)
    result.metrics = {
        "setup_s": median(setup) * scale,
        "peak_rss_mb": own_peak_rss_mb(),
        "latency_ms": mix_s / ops * 1e3,
        "throughput_per_s": ops / mix_s,
    }
    every = [t for times in round_times for t in times]
    result.notes.append(
        f"query: {number} rounds of {OPS_PER_ROUND} ops per engine; the "
        f"mix measured {measured_s * 1e3:.2f} ms at the rounds' lower "
        f"deciles, {median(every) * len(rounds) * 1e3:.2f} ms at their "
        f"median; host gauge scale {scale:.3f} over {len(gauge.times)} "
        f"ticks")
    if trace:
        for name, per_round in group_times.items():
            for op, count in MIX:
                per_call = count * (BATCH if op == "reachable_many" else 1)
                total = sum(fast_time([times[op] for times in repeats])
                            for repeats in per_round)
                result.layers[f"core.{name}.{op}_us"] = (
                    total * scale / len(rounds) / per_call * 1e6)
    return result
