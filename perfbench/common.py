"""Inputs, oracle and measuring helpers shared by every workload.

Nothing here imports the program: the graphs, the reference answers and
the clocks belong to the benchmark, so a change to ``src/`` can move the
numbers but never the yardstick.
"""

from __future__ import annotations

import math
import os
import random
import resource
import statistics
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple

#: Average out-degree of every generated graph.
DEGREE = 3


@dataclass
class Dag:
    """A random DAG as written to disk: string labels, forward arcs."""

    nodes: List[str]
    arcs: List[Tuple[str, str]]
    children: Dict[str, List[str]]
    parents: Dict[str, List[str]]

    def write(self, path: Path) -> None:
        """Write the edge-list file the program reads (isolated nodes alone)."""
        lines = [node for node in self.nodes
                 if not self.children[node] and not self.parents[node]]
        lines += [f"{source} {destination}" for source, destination in self.arcs]
        path.write_text("\n".join(lines) + "\n")


def make_dag(num_nodes: int, seed: int, salt: str) -> Dag:
    """Uniform random DAG: a hidden topological permutation and
    ``DEGREE * num_nodes`` distinct forward arcs, drawn from ``seed``.

    ``salt`` separates the graphs of different workloads drawn from one
    seed.
    """
    rng = random.Random(f"{salt}:{seed}")
    rank = list(range(num_nodes))
    rng.shuffle(rank)
    chosen: Set[Tuple[int, int]] = set()
    arcs: List[Tuple[str, str]] = []
    while len(arcs) < DEGREE * num_nodes:
        first = rng.randrange(num_nodes)
        second = rng.randrange(num_nodes)
        if first == second:
            continue
        if rank[first] > rank[second]:
            first, second = second, first
        if (first, second) in chosen:
            continue
        chosen.add((first, second))
        arcs.append((str(first), str(second)))
    nodes = [str(node) for node in range(num_nodes)]
    children: Dict[str, List[str]] = {node: [] for node in nodes}
    parents: Dict[str, List[str]] = {node: [] for node in nodes}
    for source, destination in arcs:
        children[source].append(destination)
        parents[destination].append(source)
    return Dag(nodes, arcs, children, parents)


def closure(adjacency: Dict[str, List[str]], start: str) -> Set[str]:
    """Reflexive BFS closure of ``start`` over ``adjacency``."""
    seen = {start}
    queue = deque([start])
    while queue:
        for nxt in adjacency[queue.popleft()]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


@dataclass
class Oracle:
    """BFS answers for a seeded sample of sources and targets.

    ``pairs`` holds ``(u, v, reachable)`` with half of them reachable by
    construction: random pairs on these graphs are almost all negative,
    which would leave the positive paths of every engine unmeasured.
    """

    descendants: Dict[str, Set[str]] = field(default_factory=dict)
    ancestors: Dict[str, Set[str]] = field(default_factory=dict)
    pairs: List[Tuple[str, str, bool]] = field(default_factory=list)


def make_oracle(dag: Dag, seed: int, *, sources: int, targets: int,
                pairs_per_source: int) -> Oracle:
    """Sample sources with a non-trivial closure and answer them by BFS."""
    rng = random.Random(f"oracle:{seed}")
    oracle = Oracle()
    candidates = [node for node in dag.nodes if dag.children[node]]
    rng.shuffle(candidates)
    for node in candidates:
        if len(oracle.descendants) == sources:
            break
        reach = closure(dag.children, node)
        if len(reach) > 1:
            oracle.descendants[node] = reach
    landing = [node for node in dag.nodes if dag.parents[node]]
    for node in rng.sample(landing, min(targets, len(landing))):
        oracle.ancestors[node] = closure(dag.parents, node)
    for source, reach in oracle.descendants.items():
        positives = sorted(reach - {source})
        for index in range(pairs_per_source):
            if index % 2 == 0:
                oracle.pairs.append((source, rng.choice(positives), True))
                continue
            while True:
                other = rng.choice(dag.nodes)
                if other not in reach:
                    oracle.pairs.append((source, other, False))
                    break
    rng.shuffle(oracle.pairs)
    return oracle


# ----------------------------------------------------------------------
# measuring
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (``fraction`` in 0..1)."""
    ordered = sorted(values)
    index = max(0, math.ceil(fraction * len(ordered)) - 1)
    return ordered[index]


#: Share of one input's timings that lie below the one taken as its
#: time.
FAST_SHARE = 0.1


def fast_time(timings: Sequence[float]) -> float:
    """The time of one input: the lower decile of its timings in a run.

    Every timing of one input is the program's cost plus what the host
    took from it at that moment, and this host spends stretches of
    seconds in a state ~1.5x slower than its best.  The median of a run
    reports how long those stretches lasted; the lower decile reports
    the cost on the host's better seconds, and unlike the fastest
    single timing it does not rest on one sample.
    """
    return percentile(timings, FAST_SHARE)


#: Seconds between two timings of the gauge's reference op.
GAUGE_PERIOD_S = 0.25
#: The reference op's ``fast_time`` on the 2-vCPU VM the benchmark was
#: tuned on.  Scaled times read as if the host ran the op this fast.
GAUGE_REFERENCE_S = 0.018


class HostGauge:
    """The host's speed through one run, from a reference op of the
    benchmark's own: a breadth-first search over a fixed 20k-node graph
    (``closure``), in pure Python.

    The workload calls ``tick`` between its timed ops, so the reference
    is timed on the same thread through the same stretches of the host
    as the program.  The host changes speed by 20-40% over minutes, and
    the reference's ``fast_time`` follows the program's: over ten 45 s
    windows they correlated at 0.88, and the build's spread fell from
    0.19 to 0.09 once divided by it.  ``scale`` turns a measured time
    into the time on a host that runs the reference in
    ``GAUGE_REFERENCE_S``; the program never runs the reference, so a
    change to it moves scaled times as much as measured ones.
    """

    def __init__(self) -> None:
        dag = make_dag(20_000, 0, "gauge")
        self._children = dict(dag.children)
        self._children["gauge-root"] = dag.nodes[:4_000]
        self.times: List[float] = []
        self._due = 0.0

    def tick(self) -> None:
        """Time the reference op if a period has passed since the last."""
        started = time.perf_counter()
        if started < self._due:
            return
        closure(self._children, "gauge-root")
        done = time.perf_counter()
        self.times.append(done - started)
        self._due = done + GAUGE_PERIOD_S

    def scale(self) -> float:
        """Factor from measured to scaled times for this run."""
        return GAUGE_REFERENCE_S / fast_time(self.times)


def host_ref_ops_s(seconds: float = 0.3) -> float:
    """Iterations per second of a fixed pure-Python loop.

    Recorded before and after every run, so a slow host can be told
    apart from a slow change.
    """
    done = 0
    started = time.perf_counter()
    deadline = started + seconds
    while True:
        total = 0
        for value in range(2000):
            total += value * value % 7
        done += 1
        now = time.perf_counter()
        if now >= deadline:
            return done / (now - started)


def own_peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of another process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError(f"no VmHWM for pid {pid}")


_TICK = os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of a process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


@dataclass
class Result:
    """What one workload phase measured.

    ``metrics`` are the end-to-end numbers of an untraced run, ``layers``
    the per-layer numbers of a traced one; ``notes`` are diagnostics and
    flags printed beside the result.
    """

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
