"""Extension experiment — persistence formats for a built closure.

"Compression is a one-time activity, and once the compressed closure has
been obtained, it can be repeatedly used" (Section 3.2) — which makes the
persisted artifact's size and load cost part of the system's story.
Compares the mutable-index JSON document (debuggable, updatable after
load) against the RTCF binary snapshot (opened through ``mmap``; interval
pages stay on disk until a query touches them), and both against
rebuilding from scratch.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from _utils import record_result
from repro.bench import format_table
from repro.core.index import IntervalTCIndex
from repro.core.serialize import index_to_dict, save_frozen_index, save_index
from repro.factory import open_index
from repro.graph.generators import random_dag


@pytest.fixture(scope="module")
def persisted(tmp_path_factory, scale):
    base = tmp_path_factory.mktemp("persist")
    graph = random_dag(min(1000, scale["nodes"]), 3, 1989)
    build_start = time.perf_counter()
    index = IntervalTCIndex.build(graph, gap=1)
    build_seconds = time.perf_counter() - build_start

    json_path = base / "closure.json"
    save_index(index, json_path)
    rtcf_path = base / "closure.rtcf"
    save_frozen_index(index.freeze(), rtcf_path, format="rtcf")
    return graph, index, build_seconds, json_path, rtcf_path


def test_persistence_profile(persisted):
    graph, index, build_seconds, json_path, rtcf_path = persisted

    load_start = time.perf_counter()
    loaded = open_index(json_path, engine="interval")
    json_load_seconds = time.perf_counter() - load_start

    open_start = time.perf_counter()
    mapped = open_index(rtcf_path)
    open_seconds = time.perf_counter() - open_start

    rows = [
        {"artifact": "rebuild from graph", "bytes": "-",
         "ms": build_seconds * 1e3},
        {"artifact": "JSON document", "bytes": json_path.stat().st_size,
         "ms": json_load_seconds * 1e3},
        {"artifact": "RTCF snapshot", "bytes": rtcf_path.stat().st_size,
         "ms": open_seconds * 1e3},
    ]
    record_result("persistence",
                  format_table(rows, title="Persisting a built closure"))

    # Opening the mapped snapshot (header + section table) beats full
    # JSON loading.  RTCF is not the smaller file: it also carries the
    # reverse interval index, which the JSON document leaves out.
    assert open_seconds < json_load_seconds
    # Both reloaded artifacts answer identically to the built index.
    for node in list(graph.nodes())[:50]:
        assert loaded.successors(node) == index.successors(node)
        assert mapped.successors(node) == index.successors(node)
        assert mapped.predecessors(node) == index.predecessors(node)


def test_json_size_tracks_intervals(persisted):
    _, index, _, json_path, _ = persisted
    document = index_to_dict(index)
    assert len(json.dumps(document)) == json_path.stat().st_size


def test_json_load_kernel(benchmark, persisted):
    _, _, _, json_path, _ = persisted
    loaded = benchmark(lambda: open_index(json_path, engine="interval"))
    assert len(loaded) > 0


def test_rtcf_open_kernel(benchmark, persisted):
    _, _, _, _, rtcf_path = persisted
    assert benchmark(lambda: len(open_index(rtcf_path))) > 0


def test_rtcf_query_kernel(benchmark, persisted):
    graph, index, _, _, rtcf_path = persisted
    rng = random.Random(11)
    nodes = list(graph.nodes())
    pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(500)]
    mapped = open_index(rtcf_path)
    hits = benchmark(lambda: sum(mapped.reachable(u, v) for u, v in pairs))
    assert hits == sum(index.reachable(u, v) for u, v in pairs)
