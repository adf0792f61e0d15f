"""Section 4 — incremental update cost vs. closure recomputation.

Measures the three write paths the paper optimises: new-node insertion
(tree arc, absorbed by numbering gaps), non-tree arc insertion (cut-off
propagation), and the refinement pattern (new node under parents that
already subsume its reach).  Non-tree arc deletion is recorded beside
them, to put its full-recompute cost on record.  Also the gap-width
ablation from DESIGN.md.
"""

from __future__ import annotations

import random

import pytest

from _utils import record_result
from repro.bench import format_table, update_cost
from repro.core.index import IntervalTCIndex
from repro.graph.generators import random_dag, random_hierarchy


@pytest.fixture(scope="module")
def update_rows(scale):
    return update_cost(min(500, scale["nodes"]), 2.0,
                       batch=scale["update_batch"], seed=1989)


def test_incremental_beats_rebuild(update_rows):
    """Every insertion beats rebuild-per-update by 5x.  The deletion row
    is on record with no bar: a Section 4.2 deletion recomputes every
    node's intervals, one propagation pass, so it costs about what the
    propagation step of a rebuild does."""
    record_result(
        "updates",
        format_table(update_rows,
                     title="Section 4: incremental maintenance vs rebuild-per-update"),
    )
    for row in update_rows:
        if not row["workload"].startswith("delete"):
            assert row["speedup"] > 5.0, row


def test_updates_preserve_exactness(scale):
    """After a long mixed stream the index still matches ground truth."""
    index = IntervalTCIndex.build(random_hierarchy(200, rng=3), gap=32)
    rng = random.Random(5)
    for step in range(scale["update_batch"]):
        nodes = list(index.nodes())
        index.add_node(("u", step), parents=rng.sample(nodes, k=2))
        if step % 5 == 0:
            source, destination = rng.choice(list(index.graph.arcs()))
            index.remove_arc(source, destination)
    index.check_invariants()
    index.verify()


@pytest.mark.parametrize("gap", [2, 8, 64])
def test_gap_width_ablation(benchmark, gap, scale):
    """Wider numbering gaps defer renumbering -> cheaper insert streams."""
    base = random_hierarchy(min(400, scale["nodes"]), rng=11)

    def insert_stream() -> int:
        index = IntervalTCIndex.build(base.copy(), gap=gap)
        rng = random.Random(17)
        nodes = list(index.nodes())
        for step in range(scale["update_batch"]):
            index.add_node(("g", gap, step), parents=[rng.choice(nodes)])
        return index.num_intervals

    total = benchmark(insert_stream)
    assert total > 0
