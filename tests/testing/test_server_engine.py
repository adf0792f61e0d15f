"""The differential matrix's "server" engine: fuzz through a live wire.

Every checkpoint comparison rebuilds a hybrid from the oracle's arcs,
serves it from a background-thread server, and answers the oracle's
questions with real framed round trips — so a divergence anywhere in
framing, dispatch, coalescing, or JSON transport fails the same way an
engine bug would.
"""

from __future__ import annotations

import pytest

from repro.core.hybrid import HybridTCIndex
from repro.graph.digraph import DiGraph
from repro.server.inprocess import ServerBackedEngine, ServerThread
from repro.testing.fuzzer import fuzz
from repro.testing.oracle import (ENGINE_FACTORIES, DifferentialMismatch,
                                  SetClosureOracle, compare_engine)


def test_server_is_a_registered_engine():
    assert "server" in ENGINE_FACTORIES


def test_fuzz_through_live_server():
    """A short differential run replayed through the wire stays clean."""
    _, report = fuzz(num_ops=80, seed=21, num_nodes=12, check_every=40,
                     engines=("server",))
    assert report.violations == 0
    assert report.differential_checks > 0


def test_factory_builds_comparable_engine():
    graph = DiGraph([("x", "y"), ("y", "z")])
    oracle = SetClosureOracle(arcs=graph.arcs())
    engine = ENGINE_FACTORIES["server"](graph)
    try:
        # 3 successor + 3 predecessor sets, one all-pairs batch, six
        # reachable_from_set groups
        assert compare_engine("server", engine, oracle,
                              predecessors=True) == 6 + 1 + 6
    finally:
        engine.close()


def test_mismatch_is_caught_through_the_wire():
    """Harness self-test: a server over the WRONG graph must fail."""
    oracle = SetClosureOracle(arcs=[("x", "y"), ("y", "z")])
    wrong = DiGraph([("x", "y")])  # y->z missing
    with ServerThread(lambda: HybridTCIndex.build(wrong)) as thread:
        engine = ServerBackedEngine(thread)
        with pytest.raises(DifferentialMismatch):
            compare_engine("server", engine, oracle)
