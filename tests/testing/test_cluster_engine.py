"""The differential matrix's "cluster" engine: fuzz through real forks.

Same construction as the "server" engine (see test_server_engine.py),
one level more hostile: every checkpoint comparison rebuilds a hybrid
from the oracle's arcs, publishes it as an RTCF generation, forks two
worker processes that mmap it, and answers the oracle's questions with
framed round trips that land on a kernel-chosen worker.  A divergence
anywhere in the generation format, the mmap view, cross-process write
forwarding, or the publish protocol fails like an engine bug would.
"""

from __future__ import annotations

import pytest

from repro.core.hybrid import HybridTCIndex
from repro.graph.digraph import DiGraph
from repro.server.inprocess import ClusterThread, ServerBackedEngine
from repro.testing.fuzzer import fuzz
from repro.testing.oracle import (ENGINE_FACTORIES, DifferentialMismatch,
                                  SetClosureOracle, compare_engine)


def test_cluster_is_a_registered_engine():
    assert "cluster" in ENGINE_FACTORIES


def test_fuzz_through_live_cluster():
    """A short differential run replayed through forked workers reading
    mmap'd generations stays clean.  Kept small: every checkpoint forks
    a fresh two-worker cluster."""
    _, report = fuzz(num_ops=40, seed=13, num_nodes=10, check_every=40,
                     engines=("cluster",))
    assert report.violations == 0
    assert report.differential_checks > 0


def test_factory_builds_comparable_engine():
    graph = DiGraph([("x", "y"), ("y", "z")])
    oracle = SetClosureOracle(arcs=graph.arcs())
    engine = ENGINE_FACTORIES["cluster"](graph)
    try:
        # 3 successor + 3 predecessor sets, one all-pairs batch, six
        # reachable_from_set groups
        assert compare_engine("cluster", engine, oracle,
                              predecessors=True) == 6 + 1 + 6
    finally:
        engine.close()


def test_mismatch_is_caught_through_the_forks():
    """Harness self-test: a cluster serving the WRONG graph must fail."""
    oracle = SetClosureOracle(arcs=[("x", "y"), ("y", "z")])
    wrong = DiGraph([("x", "y")])  # y->z missing
    with ClusterThread(lambda: HybridTCIndex.build(wrong),
                       workers=2) as thread:
        engine = ServerBackedEngine(thread)
        with pytest.raises(DifferentialMismatch):
            compare_engine("cluster", engine, oracle)
