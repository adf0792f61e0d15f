"""Extension experiment — what an insert costs when numbers run out.

Section 4.1 answers "what if empty numbers run out" by shifting numbers
up to the first hole; its footnote adds real-number labels, which never
run out.  This index answers with a global re-stride
(:func:`repro.core.updates.renumber`, at a widened stride that sticks),
or, under ``numbering="fractional"``, with the footnote's route.  The
cells time two insert streams on ``random_dag(n, 3.0)``: random
two-parent inserts, and a hostile stream that keeps inserting under one
initially full leaf.  Each cell records the insert mean, p50 and p99,
how many renumbering passes ran, how many existing labels changed, and
what a freeze costs after the stream.
"""

from __future__ import annotations

import random
import time

import pytest

from _utils import record_result
from repro.bench import format_table
from repro.core.index import IntervalTCIndex
from repro.graph.generators import random_dag

STRATEGIES = [
    ("global, gap=1", dict(gap=1)),
    ("global, gap=32", dict(gap=32)),
    ("fractional, gap=2", dict(gap=2, numbering="fractional")),
]

#: Sources whose successor sets must agree across strategies.
SAMPLE_SOURCES = 32


def _random_stream(index, inserts: int):
    """Each new node hangs under two random existing nodes."""
    rng = random.Random(1989)
    nodes = list(index.graph.nodes())
    for step in range(inserts):
        node = ("r", step)
        yield node, rng.sample(nodes, 2)
        nodes.append(node)


def _hostile_stream(index, inserts: int):
    """Alternate deep/wide inserts under the same initially-full leaf."""
    leaf = next(node for node in index.graph
                if index.graph.out_degree(node) == 0)
    parent = leaf
    for step in range(inserts):
        yield ("h", step), [parent]
        parent = ("h", step) if step % 2 else leaf


STREAMS = {"random": _random_stream, "hostile": _hostile_stream}


def _percentile(sorted_values, fraction: float) -> float:
    return sorted_values[min(len(sorted_values) - 1,
                             int(fraction * len(sorted_values)))]


def _cell(base, stream: str, kwargs: dict, inserts: int):
    """Run one insert stream; returns the row and a closure sample."""
    index = IntervalTCIndex.build(base.copy(), **kwargs)
    before = dict(index.postorder)
    times = []
    for node, parents in STREAMS[stream](index, inserts):
        start = time.perf_counter()
        index.add_node(node, parents=parents)
        times.append(time.perf_counter() - start)
    start = time.perf_counter()
    frozen = index.freeze()
    freeze_s = time.perf_counter() - start
    times.sort()
    sources = list(index.graph.nodes())[::max(1, index.graph.num_nodes
                                              // SAMPLE_SOURCES)]
    closure = {source: frozenset(frozen.successors(source))
               for source in sources}
    row = {"mean_ms": round(sum(times) / len(times) * 1e3, 3),
           "p50_ms": round(_percentile(times, 0.5) * 1e3, 3),
           "p99_ms": round(_percentile(times, 0.99) * 1e3, 3),
           "renumbers": index.renumber_count,
           "labels_changed": sum(1 for node, number in before.items()
                                 if index.postorder[node] != number),
           "freeze_ms": round(freeze_s * 1e3, 1),
           "final_intervals": index.num_intervals}
    return row, closure


@pytest.fixture(scope="module")
def cells(scale):
    inserts = scale["update_batch"]
    rows, closures = [], {}
    for n in scale["renumber_nodes"]:
        base = random_dag(n, 3.0, 1989)
        for stream in STREAMS:
            for name, kwargs in STRATEGIES:
                row, closure = _cell(base, stream, kwargs, inserts)
                rows.append({"n": n, "stream": stream, "strategy": name,
                             "inserts": inserts, **row})
                closures[n, stream, name] = closure
    return rows, closures


def test_renumbering_cells(cells):
    rows, closures = cells
    record_result(
        "renumbering",
        format_table(rows, title="Insert cost when numbers run out "
                                 "(random_dag(n, 3.0))"),
    )
    for row in rows:
        if row["strategy"].startswith("fractional"):
            # Fractional numbering never touches an existing label.
            assert row["labels_changed"] == 0 and row["renumbers"] == 0, row
        elif row["strategy"] == "global, gap=1":
            # The cells measure running out: gap 1 leaves no free number.
            assert row["renumbers"] > 0, row
    # Every strategy gives the same closure.
    for n in {row["n"] for row in rows}:
        for stream in STREAMS:
            group = [row for row in rows
                     if (row["n"], row["stream"]) == (n, stream)]
            assert len({row["final_intervals"] for row in group}) == 1, group
            first = closures[n, stream, group[0]["strategy"]]
            for row in group[1:]:
                assert closures[n, stream, row["strategy"]] == first, row
