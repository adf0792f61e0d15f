"""The invariant auditor: healthy indexes pass, corruptions are named."""

import pytest

from repro.core.index import IntervalTCIndex
from repro.core.intervals import Interval
from repro.factory import open_index
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_dag
from repro.testing.faults import injected_fault
from repro.testing.invariants import InvariantViolation, audit_index
from repro.testing.oracle import (DifferentialMismatch, SetClosureOracle,
                                  compare_engine)


def _build(arcs, **kwargs):
    return IntervalTCIndex.build(DiGraph(arcs), **kwargs)


PAPER_ARCS = [
    ("a", "b"), ("a", "c"), ("b", "d"), ("b", "e"),
    ("c", "e"), ("c", "f"), ("e", "g"), ("f", "g"),
]


def test_audit_passes_on_healthy_indexes():
    assert audit_index(_build(PAPER_ARCS)) > 0
    assert audit_index(_build(PAPER_ARCS, gap=8, merge=True)) > 0
    assert audit_index(_build(PAPER_ARCS, numbering="fractional")) > 0


def test_audit_passes_across_random_dags_and_updates():
    for seed in range(4):
        graph = random_dag(20, 2.0, seed)
        index = IntervalTCIndex.build(graph, gap=4)
        audit_index(index)
        nodes = list(index.postorder)
        index.add_node("fresh", parents=nodes[:2])
        audit_index(index)
        index.remove_node(nodes[-1])
        audit_index(index)


def test_lemma1_violation_on_truncated_tree_interval():
    index = _build(PAPER_ARCS)
    node = max(index.tree_interval,
               key=lambda n: index.tree_interval[n].hi - index.tree_interval[n].lo)
    interval = index.tree_interval[node]
    index.tree_interval[node] = Interval(interval.hi, interval.hi)
    with pytest.raises(InvariantViolation) as excinfo:
        audit_index(index)
    assert excinfo.value.invariant in ("lemma1", "laminar", "bookkeeping") \
        or "lemma1" in str(excinfo.value)


def test_postorder_violation_when_child_outnumbers_parent():
    index = _build([("a", "b")])
    # Swap the numbers of parent and child without touching anything else.
    index.postorder["a"], index.postorder["b"] = (
        index.postorder["b"], index.postorder["a"])
    index.node_of_number = {number: node
                           for node, number in index.postorder.items()}
    with pytest.raises(InvariantViolation):
        audit_index(index)


def test_subsumption_violation_on_retained_subsumed_interval():
    index = _build(PAPER_ARCS)
    interval_set = index.intervals["a"]
    lo, hi = interval_set._los[0], interval_set._his[0]
    # Force a strictly nested (subsumed) duplicate into the raw storage.
    interval_set._los.insert(1, lo)
    interval_set._his.insert(1, hi)
    with pytest.raises(InvariantViolation) as excinfo:
        audit_index(index)
    # The index's own per-set check fires first under the bookkeeping
    # umbrella; either name proves the corruption is caught.
    assert excinfo.value.invariant in ("bookkeeping", "subsumption")


def test_self_coverage_violation_on_dropped_interval():
    index = _build(PAPER_ARCS)
    interval_set = index.intervals["a"]
    interval_set._los.clear()
    interval_set._his.clear()
    with pytest.raises(InvariantViolation) as excinfo:
        audit_index(index)
    assert excinfo.value.invariant in ("bookkeeping", "self-coverage")


def test_gap_violation_under_leaky_free_range_ledger():
    index = _build(PAPER_ARCS, gap=8)
    audit_index(index)
    with injected_fault("leak-used-numbers"):
        with pytest.raises(InvariantViolation) as excinfo:
            audit_index(index)
    assert excinfo.value.invariant == "gap"
    # The patch is restored on exit.
    audit_index(index)


def test_keep_subsumed_fault_breaks_fresh_builds():
    with injected_fault("keep-subsumed"):
        index = _build(PAPER_ARCS)
        with pytest.raises(InvariantViolation):
            audit_index(index)


@pytest.mark.parametrize("graph", [
    pytest.param(DiGraph(PAPER_ARCS), id="paper"),
    pytest.param(random_dag(60, 2.5, 3), id="random")])
def test_keep_subsumed_fault_breaks_direct_frozen_builds(graph):
    """The direct frozen build propagates in rank space, where the
    kernel coalesces instead of dropping subsumed runs; the fault keeps
    every run there too, and the nested runs answer wrongly."""
    oracle = SetClosureOracle(arcs=graph.arcs(), nodes=graph.nodes())
    compare_engine("frozen-direct", open_index(graph, engine="frozen"),
                   oracle, predecessors=True)
    with injected_fault("keep-subsumed"):
        broken = open_index(graph, engine="frozen")
    with pytest.raises(DifferentialMismatch):
        compare_engine("frozen-direct", broken, oracle, predecessors=True)
