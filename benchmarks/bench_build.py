"""Million-node raw speed: vectorized builds and O(1) binary cold starts.

Two claims gate this benchmark (``BENCH_build.json`` at the repo root):

* **Build**: the propagation kernel (:mod:`repro.core.propagation`)
  beats the paper's sequential pass
  (:func:`repro.core.labeling.propagate_intervals`) by >= 2x at 100k
  nodes — and the two label tables are *identical*, which is asserted
  here by comparing the deterministic RTCF serialisations byte for byte
  before any speedup is reported.
* **Cold load**: reopening the closure through the RTCF container
  (``mmap`` + ``frombuffer``) beats re-parsing the JSON frozen document
  by >= 10x at 100k nodes, and the first query after an RTCF open lands
  in microseconds because nothing is deserialised up front.

Run as a script to (re)generate ``BENCH_build.json``::

    $ python benchmarks/bench_build.py            # 100k + 1M nodes
    $ python benchmarks/bench_build.py --smoke    # CI-sized sanity run

The direct frozen build — ``open_index(graph, engine="frozen")``, which
runs on integer node ids, propagates in rank space and never builds the
mutable index — is timed end to end (tree cover included) as
``direct_build_seconds``, beside ``vectorized_total_seconds`` for the
staged build plus freeze, and its RTCF bytes must equal the staged
route's.  ``edge_list_build_seconds`` times the same route from an
edge-list file to a mapped RTCF (parse, build, RTCF write, ``mmap``
open), with no ``DiGraph`` on the way; its RTCF bytes must equal the
``DiGraph`` route's over the same file, in every run, ``--smoke``
included.

The propagation pass is timed in isolation (tree cover and postorder
numbering are shared, identical work for both passes), which is the
comparison the kernel actually changes; whole-build wall time for the
kernel's staged build is reported alongside for context.  The default
workload uses the O(n) ``first_parent`` tree-cover policy, and the
cover policy is orthogonal to the propagation comparison because both
passes consume the same cover.  ``alg1`` (``--policy alg1``) does run
at 100k nodes: on the degree-3 graph its cover took 4.0-5.0 s at a
675 MB peak RSS (2-CPU box).  Its limit is memory: the exact predecessor
counts come from bitmask ancestor sets of up to n^2 bits, about 125 GB
at 1M nodes, which puts the 1M cell out of its reach.  Query parity
between the JSON- and RTCF-loaded views is checked on every scale.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from random import Random
from typing import Callable, List, Optional

import numpy  # noqa: F401  (imported here, not inside the first timed stage)

from repro import open_index
from repro.core.index import IntervalTCIndex
from repro.core.labeling import assign_postorder, propagate_intervals
from repro.core.propagation import propagate_intervals_vectorized
from repro.core.rtcf import load_rtcf, rtcf_bytes
from repro.core.serialize import _load_frozen_index, save_frozen_index
from repro.core.tree_cover import build_tree_cover
from repro.graph.generators import random_dag
from repro.graph.io import load_edge_list, save_edge_list

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_build.json"

#: Sequential propagation above this node count is skipped (minutes of
#: pure-Python runtime); the skip is recorded in the output rather than
#: silently narrowing the matrix.
PYTHON_BUILD_CEILING = 1_000_000


def _best_of(repeats: int, workload: Callable[[], object]) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        workload()
        best = min(best, time.perf_counter() - started)
    return best


def _timed(workload: Callable[[], object]):
    started = time.perf_counter()
    result = workload()
    return result, time.perf_counter() - started


def _edge_list_build(graph, workdir: str, *, policy: str, gap: int) -> float:
    """Seconds from an edge-list file of ``graph`` to a mapped RTCF by
    the direct route; raises unless its bytes equal the ``DiGraph``
    route's over the same file."""
    edges_path = os.path.join(workdir, "graph.edges")
    rtcf_path = os.path.join(workdir, "edges.rtcf")
    save_edge_list(graph, edges_path)

    def build():
        frozen = open_index(edges_path, engine="frozen", policy=policy,
                            gap=gap)
        save_frozen_index(frozen, rtcf_path, format="rtcf")
        return load_rtcf(rtcf_path)
    mapped, seconds = _timed(build)
    mapped.close()
    reference = open_index(load_edge_list(edges_path), engine="frozen",
                           policy=policy, gap=gap)
    if Path(rtcf_path).read_bytes() != rtcf_bytes(reference):
        raise AssertionError("the edge-list route diverged from the "
                             "DiGraph route")
    return seconds


def run_scale(*, nodes: int, degree: float, seed: int, pairs: int,
              repeats: int, workdir: str, policy: str = "first_parent",
              gap: int = 32) -> dict:
    """Build, serialise, and cold-load one graph scale; verify parity."""
    rng = Random(seed)
    graph = random_dag(nodes, degree, seed)

    # Shared pipeline stages: identical inputs for both propagation
    # passes, so the cover policy cannot confound the comparison.
    cover, cover_seconds = _timed(
        lambda: build_tree_cover(graph, policy=policy))
    _, numbering_seconds = _timed(lambda: assign_postorder(cover, gap))

    propagation: dict = {}
    run_python = nodes <= PYTHON_BUILD_CEILING
    python_rtcf = None
    if run_python:
        python_labeling = assign_postorder(cover, gap)
        _, python_seconds = _timed(
            lambda: propagate_intervals(graph, cover, python_labeling))
        propagation["python_seconds"] = round(python_seconds, 6)
        # Serialise the sequential result now and drop its millions of
        # live objects *before* timing the vectorized pass — carrying
        # them across would tax the kernel with the sequential pass's
        # garbage-collector pressure.
        python_index = IntervalTCIndex(graph, cover, python_labeling,
                                       policy=policy)
        python_rtcf = rtcf_bytes(python_index.freeze())
        del python_index, python_labeling
    else:
        propagation["python"] = {
            "skipped": f"sequential propagation above {PYTHON_BUILD_CEILING} "
                       f"nodes takes many minutes; vectorized-only here"}
    gc.collect()
    # The direct route (graph -> frozen engine in rank space, no mutable
    # index), timed end to end through the public call, tree cover
    # included; only its RTCF digest outlives the timing.
    direct, direct_seconds = _timed(lambda: open_index(
        graph, engine="frozen", policy=policy, gap=gap))
    direct_digest = hashlib.sha256(rtcf_bytes(direct)).digest()
    del direct
    gc.collect()
    edge_list_seconds = _edge_list_build(graph, workdir, policy=policy,
                                         gap=gap)
    gc.collect()
    vector_labeling = assign_postorder(cover, gap)
    _, vector_seconds = _timed(
        lambda: propagate_intervals_vectorized(graph, cover,
                                               vector_labeling))
    propagation["vectorized_seconds"] = round(vector_seconds, 6)

    build_started = time.perf_counter()
    vector_index = IntervalTCIndex(graph, cover, vector_labeling,
                                   policy=policy)
    frozen, freeze_seconds = _timed(vector_index.freeze)
    total_build = time.perf_counter() - build_started

    if hashlib.sha256(rtcf_bytes(frozen)).digest() != direct_digest:
        raise AssertionError("the direct frozen build diverged from the "
                             "staged build and freeze")

    if python_rtcf is not None:
        # Identical output is the precondition for quoting any speedup:
        # the RTCF writer is deterministic, so byte equality of the two
        # serialised engines proves label-table equality.
        if rtcf_bytes(frozen) != python_rtcf:
            raise AssertionError(
                "the propagation kernel diverged from the sequential pass")
        propagation["speedup"] = round(python_seconds / vector_seconds, 2)
        propagation["verified_identical"] = True

    builds = {
        "policy": policy,
        "gap": gap,
        "tree_cover_seconds": round(cover_seconds, 6),
        "numbering_seconds": round(numbering_seconds, 6),
        "propagation": propagation,
        "vectorized_total_seconds": round(
            cover_seconds + numbering_seconds + vector_seconds
            + total_build, 6),
        "direct_build_seconds": round(direct_seconds, 6),
        "direct_verified_identical": True,
        "edge_list_build_seconds": round(edge_list_seconds, 6),
        "edge_list_verified_identical": True,
    }

    json_path = os.path.join(workdir, "closure.json")
    rtcf_path = os.path.join(workdir, "closure.rtcf")
    _, json_save_seconds = _timed(
        lambda: save_frozen_index(frozen, json_path, format="json"))
    _, rtcf_save_seconds = _timed(
        lambda: save_frozen_index(frozen, rtcf_path, format="rtcf"))

    json_load_seconds = _best_of(
        repeats, lambda: _load_frozen_index(json_path))
    rtcf_load_seconds = _best_of(repeats, lambda: load_rtcf(rtcf_path))

    # First-query latency from a cold open: everything between "the file
    # is on disk" and "the first reachability answer is in hand".
    node_list = list(graph.nodes())
    probe = (rng.choice(node_list), rng.choice(node_list))
    json_first_query = _best_of(
        repeats,
        lambda: _load_frozen_index(json_path).reachable(*probe))
    rtcf_first_query = _best_of(
        repeats, lambda: load_rtcf(rtcf_path).reachable(*probe))

    # Parity: both cold-loaded views answer a random batch identically.
    sample = [(rng.choice(node_list), rng.choice(node_list))
              for _ in range(pairs)]
    json_view = _load_frozen_index(json_path)
    rtcf_view = load_rtcf(rtcf_path, verify=True)
    json_answers = json_view.reachable_many(sample)
    if rtcf_view.reachable_many(sample) != json_answers:
        raise AssertionError("RTCF view disagrees with the JSON view")

    return {
        "nodes": nodes,
        "arcs": graph.num_arcs,
        "intervals": frozen.num_intervals,
        "seed": seed,
        "degree": degree,
        "build": builds,
        "freeze_seconds": round(freeze_seconds, 6),
        "save": {
            "json_seconds": round(json_save_seconds, 6),
            "rtcf_seconds": round(rtcf_save_seconds, 6),
            "json_bytes": os.path.getsize(json_path),
            "rtcf_bytes": os.path.getsize(rtcf_path),
        },
        "cold_load": {
            "repeats": repeats,
            "json_seconds": round(json_load_seconds, 6),
            "rtcf_seconds": round(rtcf_load_seconds, 6),
            "speedup": round(json_load_seconds / rtcf_load_seconds, 2),
            "json_first_query_seconds": round(json_first_query, 6),
            "rtcf_first_query_seconds": round(rtcf_first_query, 6),
            "first_query_speedup": round(
                json_first_query / rtcf_first_query, 2),
            "verified_identical": True,
            "verified_pairs": pairs,
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="build + cold-start timings: the propagation kernel "
                    "and the RTCF zero-copy container")
    parser.add_argument("--scales", type=int, nargs="+",
                        default=[100_000, 1_000_000])
    parser.add_argument("--degree", type=float, default=3.0)
    parser.add_argument("--policy", default="first_parent",
                        help="tree-cover policy (alg1 is O(n^2)-bit at "
                             "scale; first_parent is the O(n) default)")
    parser.add_argument("--gap", type=int, default=32)
    parser.add_argument("--pairs", type=int, default=2000,
                        help="random pairs for the parity batch")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N timing repeats for loads")
    parser.add_argument("--seed", type=int, default=1989)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced scale for CI (overrides --scales)")
    parser.add_argument("--output", default=str(DEFAULT_OUTPUT))
    args = parser.parse_args(argv)

    if args.smoke:
        args.scales = [2000]
        args.pairs = min(args.pairs, 500)

    scales = []
    for nodes in args.scales:
        with tempfile.TemporaryDirectory(prefix="bench-build-") as workdir:
            scales.append(run_scale(
                nodes=nodes, degree=args.degree, seed=args.seed,
                pairs=args.pairs, repeats=args.repeats, workdir=workdir,
                policy=args.policy, gap=args.gap))

    result = {
        "meta": {
            "degree": args.degree,
            "policy": args.policy,
            "gap": args.gap,
            "repeats": args.repeats,
            "seed": args.seed,
            "python_build_ceiling": PYTHON_BUILD_CEILING,
            "cpu_count": os.cpu_count(),
        },
        "scales": scales,
    }
    Path(args.output).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    print(f"\nresults written to {args.output}")
    return 0


# ----------------------------------------------------------------------
# pytest wrappers (collected via the bench_*.py pattern)
# ----------------------------------------------------------------------
def test_bench_build_smoke(tmp_path):
    """Smoke-scale run: parity enforced inside, speedups sane."""
    result = run_scale(nodes=1500, degree=2.0, seed=1989, pairs=400,
                       repeats=2, workdir=str(tmp_path))
    assert result["build"]["propagation"]["verified_identical"]
    assert result["build"]["direct_verified_identical"]
    assert result["build"]["edge_list_verified_identical"]
    assert result["cold_load"]["verified_identical"]
    # The >= 10x cold-load and >= 2x propagation bars are enforced on
    # the committed 100k-node BENCH_build.json; at smoke scale fixed
    # per-call costs dominate, so only direction is asserted here.
    assert result["cold_load"]["speedup"] > 1.0
    assert result["save"]["rtcf_bytes"] > 0


def test_committed_results_meet_the_bars():
    """The committed BENCH_build.json must back the README's claims."""
    if not DEFAULT_OUTPUT.exists():
        import pytest
        pytest.skip("BENCH_build.json not generated yet")
    document = json.loads(DEFAULT_OUTPUT.read_text())
    big = [scale for scale in document["scales"]
           if scale["nodes"] >= 100_000]
    assert big, "committed results lack a >=100k-node scale"
    for scale in big:
        assert scale["cold_load"]["verified_identical"]
        assert scale["cold_load"]["speedup"] >= 10.0
        propagation = scale["build"]["propagation"]
        if "speedup" in propagation:
            assert propagation["verified_identical"]
    # The >=2x propagation bar is claimed "at >=100k nodes": at least
    # one committed big scale must clear it with verified parity.  (At
    # 1M nodes per-node interval counts grow and the sequential pass's
    # merge-friendly sorts claw back ground — that honest number stays
    # in the file without being the headline.)
    assert any(
        scale["build"]["propagation"].get("speedup", 0) >= 2.0
        and scale["build"]["propagation"]["verified_identical"]
        for scale in big), "no >=100k scale clears the 2x propagation bar"


if __name__ == "__main__":
    sys.exit(main())
