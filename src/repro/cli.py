"""Command-line interface: build, persist, and query compressed closures.

Installed as ``repro-tc``.  Typical session::

    $ repro-tc build edges.txt -o closure.json
    $ repro-tc query closure.json alice bob
    $ repro-tc successors closure.json alice
    $ repro-tc stats edges.txt
    $ repro-tc bench fig3.9 --nodes 500

Crash-safe sessions go through a durable store directory instead::

    $ repro-tc build edges.txt --durable store.d
    $ repro-tc query --durable store.d alice bob
    $ repro-tc checkpoint store.d
    $ repro-tc log-stats store.d

Edge lists are whitespace-separated ``source destination`` lines with
``#`` comments (see :mod:`repro.graph.io`).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.bench import (
    chain_comparison,
    compression_by_workload,
    format_histogram,
    format_table,
    interval_census,
    io_traffic,
    merging_benefit,
    query_effort,
    storage_vs_degree,
    storage_vs_size,
    tree_cover_ablation,
    update_cost,
    worst_case_bipartite,
)
from repro.core import explain
from repro.core.batch import apply_diff
from repro.core.frozen import FrozenTCIndex
from repro.core.hybrid import HybridTCIndex
from repro.core.index import DEFAULT_GAP, IntervalTCIndex
from repro.core.serialize import (save_frozen_index, save_hybrid_index,
                                  save_index)
from repro.core.tree_cover import POLICIES
from repro.errors import ReproError
from repro.factory import open_index
from repro.graph.io import load_edge_list
from repro.graph.metrics import profile
from repro.storage.model import compare_storage
from repro.testing.fuzzer import DEFAULT_ENGINES


def _load_index_or_build(path: str, *, gap: int = DEFAULT_GAP) -> IntervalTCIndex:
    """Accept either a saved index (.json) or a raw edge list."""
    return open_index(path, engine="interval", gap=gap, durable=False)


def _load_engine(path: str, engine: Optional[str]):
    """Resolve a query engine: a saved index (mutable, frozen buffers, or
    hybrid), or an edge list built on the fly; ``--engine frozen`` /
    ``--engine hybrid`` compiles.  Thin wrapper over
    :func:`repro.open_index`."""
    return open_index(path, engine=engine or "auto", durable=False)


def _add_engine_option(command) -> None:
    command.add_argument(
        "--engine",
        choices=("dict", "frozen", "hybrid", "chain"),
        default=None,
        help="query engine: 'dict' (the updatable interval-set index), "
             "'frozen' (flat-array snapshot), 'hybrid' (frozen base + "
             "delta overlay), or 'chain' (chain-cover labels; default "
             "follows the file)")


def _add_durable_option(command) -> None:
    command.add_argument(
        "--durable", metavar="PATH", default=None,
        help="operate on a crash-safe durable store directory (write-ahead "
             "logged; see the checkpoint/recover/log-stats commands) "
             "instead of an index file")


def _open_durable(path: str, *, create: bool = False, **kwargs):
    from repro.durability import DurableTCIndex
    return DurableTCIndex.open(path, create=create, **kwargs)


@contextmanager
def _engine_for(args: argparse.Namespace) -> Iterator[object]:
    """A query engine from ``--durable PATH`` or the index positional.

    Durable stores hold an open log handle, so they are closed when the
    command finishes; file-based engines need no teardown.
    """
    if getattr(args, "durable", None):
        store = _open_durable(args.durable)
        try:
            yield store
        finally:
            store.close()
        return
    if not args.index:
        raise ReproError("provide an index/edge-list path or --durable PATH")
    yield _load_engine(args.index, args.engine)


def _cmd_build(args: argparse.Namespace) -> int:
    graph = load_edge_list(args.edges)
    if args.durable:
        # A durable store is built incrementally so every node insertion
        # is journalled; the tree cover is whatever the Section 4 update
        # algorithms produce (--policy applies only to file output).
        from repro.graph.traversal import topological_order
        with _open_durable(args.durable, create=True, gap=args.gap) as store:
            for node in topological_order(graph):
                store.add_node(node,
                               sorted(graph.predecessors(node), key=repr))
            if args.merge:
                store.merge_intervals()
            checkpoint_path = store.checkpoint()
            stats = store.index.stats()
        print(format_table([stats.as_dict()], title="durable store built"))
        print(f"durable store at {args.durable} "
              f"(checkpoint {checkpoint_path})")
        return 0
    index = IntervalTCIndex.build(graph, policy=args.policy, gap=args.gap,
                                  merge=args.merge)
    if args.output:
        save_index(index, args.output)
    stats = index.stats()
    print(format_table([stats.as_dict()], title="index built"))
    if args.output:
        print(f"index written to {args.output}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    with _engine_for(args) as engine:
        answer = engine.reachable(args.source, args.destination)
    print("reachable" if answer else "not-reachable")
    return 0 if answer else 1


def _cmd_successors(args: argparse.Namespace) -> int:
    with _engine_for(args) as engine:
        nodes = sorted(engine.successors(args.node, reflexive=False), key=str)
    for node in nodes:
        print(node)
    return 0


def _cmd_predecessors(args: argparse.Namespace) -> int:
    with _engine_for(args) as engine:
        nodes = sorted(engine.predecessors(args.node, reflexive=False),
                       key=str)
    for node in nodes:
        print(node)
    return 0


def _cmd_freeze(args: argparse.Namespace) -> int:
    index = _load_index_or_build(args.index)
    frozen = index.freeze()
    format = args.format or ("rtcf" if args.output.endswith(".rtcf")
                             else "json")
    save_frozen_index(frozen, args.output, format=format)
    print(format_table([frozen.stats()], title="frozen index"))
    print(f"frozen buffers written to {args.output} ({format})")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    """Migrate a JSON frozen document to the RTCF zero-copy container."""
    import os
    import time

    from repro.core.rtcf import load_rtcf, save_rtcf, sniff_rtcf
    from repro.core.serialize import _load_frozen_index

    if sniff_rtcf(args.index):
        raise ReproError(f"{args.index} is already an RTCF file")
    loaded = open_index(args.index, durable=False)
    if not isinstance(loaded, FrozenTCIndex):
        raise ReproError(
            f"{args.index} holds a {loaded.capabilities().kind!r} engine; "
            "convert migrates frozen documents — freeze first "
            "(repro-tc freeze INDEX -o OUT.rtcf)")
    output = args.output or (
        args.index[:-len(".json")] + ".rtcf"
        if args.index.endswith(".json") else args.index + ".rtcf")
    written = save_rtcf(loaded, output)

    json_bytes = os.path.getsize(args.index)
    started = time.perf_counter()
    _load_frozen_index(args.index)
    json_load_s = time.perf_counter() - started
    started = time.perf_counter()
    load_rtcf(output, verify=args.verify)
    rtcf_load_s = time.perf_counter() - started
    print(format_table([{
        "json_bytes": json_bytes,
        "rtcf_bytes": written,
        "size_ratio": round(written / json_bytes, 3) if json_bytes else None,
        "json_load_s": round(json_load_s, 6),
        "rtcf_load_s": round(rtcf_load_s, 6),
        "load_speedup": (round(json_load_s / rtcf_load_s, 1)
                         if rtcf_load_s else None),
    }], title=f"converted {args.index} -> {output}"))
    print(f"rtcf index written to {output}")
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    loaded = open_index(args.index, durable=False)
    caps = loaded.capabilities()
    if caps.is_frozen_snapshot:
        raise ReproError(
            f"{args.index} holds an immutable {caps.kind!r} snapshot; a "
            f"hybrid engine needs the mutable index — compact a saved "
            f"index or hybrid file instead")
    if caps.kind == "interval":
        # converting an index file IS the initial compaction: snapshot now
        hybrid = HybridTCIndex.from_index(loaded)
        folded = True
    else:
        hybrid = loaded
        folded = hybrid.compact()
    output = args.output or (args.index if args.index.endswith(".json")
                             else None)
    if output:
        save_hybrid_index(hybrid, output)
    row = {key: value for key, value in hybrid.stats().items()
           if key != "base"}
    row["base_nbytes"] = hybrid.base.stats()["nbytes"]
    row["folded"] = folded
    print(format_table([row], title="hybrid engine"))
    if output:
        print(f"hybrid index written to {output}")
    return 0


def _cmd_update(args: argparse.Namespace) -> int:
    from pathlib import Path
    diff_text = Path(args.diff).read_text()
    if args.durable:
        with _open_durable(args.durable) as store:
            applied = store.apply_diff(diff_text)
            store.index.check_invariants()
            stats = store.index.stats().as_dict()
            last_seq = store.last_seq
        print(format_table(
            [stats], title=f"applied {args.diff} ({applied} ops journalled)"))
        print(f"durable store {args.durable} at sequence {last_seq}")
        return 0
    if not args.index:
        raise ReproError("provide an index/edge-list path or --durable PATH")
    index = _load_index_or_build(args.index)
    passes = apply_diff(index, diff_text)
    index.check_invariants()
    output = args.output or (args.index if args.index.endswith(".json") else None)
    if output:
        save_index(index, output)
    print(format_table([index.stats().as_dict()],
                       title=f"applied {args.diff} ({passes} maintenance passes)"))
    if output:
        print(f"index written to {output}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    index = _load_index_or_build(args.index)
    print(explain.explain_reachability(index, args.source, args.destination))
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    index = _load_index_or_build(args.index)
    print(explain.describe(index, tree=not args.no_tree))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    graph = load_edge_list(args.edges)
    print(format_table([profile(graph).as_dict()],
                       title=f"structural profile of {args.edges}"))
    return 0


def _exercise_metrics(graph):
    """Run a mixed workload over every engine under one registry.

    Powers ``repro-tc stats --stats-json`` / ``--prom``: the interval,
    frozen, hybrid and chain-cover engines answer the same query mix
    (point, batch, semijoin), the hybrid
    absorbs mutations and compacts, and a throwaway durable store
    journals, checkpoints and recovers — so the export shows the full
    metric surface, not just whichever engine the caller happens to use.
    Returns ``(registry, engines)``; keep ``engines`` alive until after
    the snapshot, the health gauges hold weak references.
    """
    import itertools
    import tempfile

    from repro.core.chain_cover import ChainCoverIndex
    from repro.durability.store import DurableTCIndex
    from repro.graph.traversal import topological_order
    from repro.obs import MetricsRegistry, attach

    registry = MetricsRegistry()
    index = IntervalTCIndex.build(graph)
    frozen = attach(index.freeze().detach(), metrics=registry)
    hybrid = attach(HybridTCIndex.from_index(
        IntervalTCIndex.build(graph)), metrics=registry)
    chain = attach(ChainCoverIndex.build(graph), metrics=registry)
    attach(index, metrics=registry)

    nodes = sorted(graph.nodes(), key=repr)
    pairs = list(itertools.islice(itertools.product(nodes, nodes), 64))
    sample = nodes[:8]
    engines = [index, frozen, hybrid, chain]
    for engine in engines:
        engine.reachable_many(pairs)
        for node in sample:
            engine.reachable(node, nodes[-1])
            engine.successors(node)
            engine.predecessors(node)
        engine.reachable_from_set(sample)
        engine.reaching_set(sample)
        engine.any_reachable(sample, nodes[-1:])

    # exercise the update path + compaction on the hybrid
    fresh = "__stats_probe__"
    hybrid.add_node(fresh, nodes[:1])
    hybrid.reachable(nodes[0], fresh)
    hybrid.remove_node(fresh)
    hybrid.compact()

    with tempfile.TemporaryDirectory() as scratch:
        store = DurableTCIndex.open(scratch, metrics=registry)
        for node in topological_order(graph):
            store.add_node(node, sorted(graph.predecessors(node), key=repr))
        store.reachable_many(pairs)
        store.checkpoint()
        store.close()
        # re-open so recovery metrics are reported too
        store = DurableTCIndex.open(scratch, metrics=registry)
        store.reachable(nodes[0], nodes[-1])
        engines.append(store)
        snapshot = registry.snapshot()
        store.close()
    return registry, engines, snapshot


def _graph_for_stats(path: str):
    """Accept an edge list or a saved index document (.json)."""
    if not str(path).endswith(".json"):
        return load_edge_list(path)
    loaded = open_index(path, durable=False)
    if hasattr(loaded, "graph"):
        return loaded.graph
    if hasattr(loaded, "index"):  # hybrid: delta-corrected truth
        return loaded.index.graph
    raise ReproError(
        f"{path} holds frozen buffers with no graph; pass the edge list "
        "or the saved mutable index instead")


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.core.rtcf import sniff_rtcf, verify_rtcf
    if sniff_rtcf(args.edges):
        # Binary frozen container: verify checksums end to end and
        # report the layout instead of the storage comparison (which
        # needs the graph, and frozen buffers carry none).
        report = verify_rtcf(args.edges)
        sections = report.pop("sections")
        print(format_table([report], title=f"rtcf container {args.edges}"))
        print(format_table(
            [dict(section=name, **row) for name, row in sections.items()],
            title="sections (all CRCs verified)"))
        return 0
    graph = _graph_for_stats(args.edges)
    if args.stats_json or args.prom:
        from repro.obs import render_json, render_prometheus
        registry, engines, snapshot = _exercise_metrics(graph)
        if args.stats_json:
            print(render_json(snapshot))
        else:
            print(render_prometheus(registry), end="")
        del engines
        return 0
    comparison = compare_storage(graph, include_inverse=args.inverse)
    print(format_table([comparison.as_dict()], title=f"storage for {args.edges}"))
    from repro.core.select import graph_stats, recommend_engine
    stats = graph_stats(graph)
    row = stats.as_dict()
    row["recommended_engine"] = recommend_engine(stats)
    print(format_table(
        [row], title="graph statistics (what engine='auto' consults)"))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import QueryTracer, format_trace

    tracer = QueryTracer(capacity=args.last)
    engine = open_index(args.index, engine=args.engine or "auto",
                        durable=False, tracer=tracer)
    answer = engine.reachable(args.source, args.destination)
    engine.successors(args.source)
    if args.json:
        # stdout stays pure JSON; the verdict rides on stderr + exit code
        print(json.dumps(tracer.as_dicts(), indent=2))
        print("reachable" if answer else "not-reachable", file=sys.stderr)
    else:
        for root in tracer.traces():
            print(format_trace(root))
        print("reachable" if answer else "not-reachable")
    return 0 if answer else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    name = args.figure
    if name in ("fig3.9", "fig3.10"):
        rows = storage_vs_degree(args.nodes, range(1, args.max_degree + 1),
                                 seed=args.seed,
                                 include_inverse=(name == "fig3.10"))
        print(format_table(rows, title=f"{name}: storage vs degree, n={args.nodes}"))
    elif name == "fig3.11":
        sizes = [args.nodes // 8, args.nodes // 4, args.nodes // 2, args.nodes]
        print(format_table(storage_vs_size(sizes, seed=args.seed),
                           title="fig3.11: storage vs size, degree 2"))
    elif name == "fig3.12":
        histogram = interval_census(8, sample=args.sample, seed=args.seed)
        print(format_histogram(histogram,
                               title=f"fig3.12: interval census, {args.sample} samples"))
    elif name == "merging":
        print(format_table(merging_benefit(seed=args.seed), title="interval merging"))
    elif name == "worst-case":
        print(format_table(worst_case_bipartite(), title="fig3.6/3.7"))
    elif name == "chains":
        print(format_table(chain_comparison(seed=args.seed), title="Theorem 2"))
    elif name == "ablation":
        print(format_table(tree_cover_ablation(seed=args.seed),
                           title="tree-cover policies"))
    elif name == "updates":
        print(format_table(update_cost(seed=args.seed), title="update costs"))
    elif name == "queries":
        print(format_table(query_effort(args.nodes, seed=args.seed),
                           title="query effort"))
    elif name == "io":
        print(format_table(io_traffic(seed=args.seed), title="I/O traffic"))
    elif name == "workloads":
        print(format_table(
            compression_by_workload(min(args.nodes, 400), seed=args.seed),
            title="compression across graph families"))
    else:  # pragma: no cover - argparse choices prevent this
        raise ReproError(f"unknown figure {name!r}")
    return 0


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    with _open_durable(args.store) as store:
        path = store.checkpoint()
        stats = store.log_stats()
    print(f"checkpoint written to {path}")
    print(json.dumps(stats, indent=2))
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    with _open_durable(args.store) as store:
        report = store.recovery_report
        payload = (report.as_dict() if report is not None
                   else {"directory": store.directory})
        payload["nodes"] = len(store)
        payload["resumed_at_seq"] = store.last_seq + 1
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_log_stats(args: argparse.Namespace) -> int:
    from repro.durability import log_stats
    print(json.dumps(log_stats(args.store), indent=2))
    return 0


def _cmd_crash_fuzz(args: argparse.Namespace) -> int:
    import time

    from repro.testing.crashfuzz import CrashFuzzFailure, crash_sweep

    started = time.perf_counter()
    try:
        report = crash_sweep(ops=args.ops, seed=args.seed,
                             engine=args.engine,
                             fsync_every=args.fsync_every,
                             occurrences_per_point=args.occurrences,
                             bit_flips=not args.no_bit_flips)
    except CrashFuzzFailure as failure:
        print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started
    payload = report.as_dict()
    payload["elapsed_s"] = round(elapsed, 2)
    print(json.dumps(payload, indent=2))
    print(f"survived {report.crashes} simulated crashes across "
          f"{len(report.crashed_at)} crash points; recovery matched the "
          f"oracle every time")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import time

    from repro.testing.crash import save_crash
    from repro.testing.fuzzer import TraceFailure, fuzz
    from repro.testing.shrink import shrink_trace

    engines = tuple(name.strip() for name in args.engines.split(",")
                    if name.strip())
    started = time.perf_counter()
    try:
        _, report = fuzz(
            num_ops=args.ops, seed=args.seed, num_nodes=args.nodes,
            degree=args.degree, gap=args.gap, numbering=args.numbering,
            workload=args.workload, engines=engines,
            audit_every=args.audit_every, check_every=args.check_every,
            fault=args.inject_fault)
    except TraceFailure as failure:
        elapsed = time.perf_counter() - started
        print(f"FAIL after {elapsed:.2f}s: {failure}", file=sys.stderr)
        if args.no_shrink:
            shrunk = None
        else:
            print("shrinking ...", file=sys.stderr)
            shrunk = shrink_trace(failure, engines=engines,
                                  audit_every=args.audit_every,
                                  check_every=args.check_every)
            failure = shrunk.failure
            print(f"shrunk to {shrunk.ops_after} ops / "
                  f"{shrunk.arcs_after} seed arcs "
                  f"({shrunk.replays} replays): {failure}", file=sys.stderr)
        path = save_crash(failure, args.crash_dir, engines=engines,
                          audit_every=args.audit_every,
                          check_every=args.check_every, shrink=shrunk)
        print(f"crash file written to {path}", file=sys.stderr)
        print("replay with: repro-tc fuzz-replay " + path, file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - started
    row = report.as_dict()
    row["elapsed_s"] = round(elapsed, 2)
    print(format_table([row], title=f"fuzz ops={args.ops} seed={args.seed} "
                                    f"workload={args.workload}"))
    print("zero invariant violations, zero differential mismatches")
    return 0


def _cmd_fuzz_replay(args: argparse.Namespace) -> int:
    from repro.testing.crash import replay_crash

    failure, report = replay_crash(args.crash)
    if failure is not None:
        print(f"still fails: {failure}", file=sys.stderr)
        return 1
    print(format_table([report.as_dict()],
                       title=f"replay of {args.crash}: passes"))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.obs import MetricsRegistry, QueryTracer
    from repro.server.app import ReachabilityServer

    async def _run(engine) -> None:
        tracer = QueryTracer(capacity=args.trace_last) if args.trace else None
        server = ReachabilityServer(
            engine,
            metrics=MetricsRegistry(),
            tracer=tracer,
            coalesce=not args.no_coalesce,
            max_batch=args.max_batch,
            max_inflight=args.max_inflight,
            max_pending_writes=args.max_pending_writes,
            shed_retry_after_ms=args.shed_retry_ms,
            write_high_water=args.write_high_water,
            write_grace=args.write_grace,
        )
        host, port = await server.start(args.host, args.port)
        server.install_signal_handlers()
        mode = "read-only" if server.state.read_only else "read-write"
        coalescing = "off" if args.no_coalesce else "on"
        print(f"serving on {host}:{port} ({mode}, coalescing {coalescing}, "
              f"epoch {server.state.epoch})", flush=True)
        try:
            await server.serve_until_shutdown()
        finally:
            await server.stop()
        print("shut down cleanly", flush=True)

    def _run_cluster(engine) -> None:
        from repro.server.cluster import ClusterServer
        cluster = ClusterServer(
            engine,
            workers=args.workers,
            snapshot_dir=args.snapshot_dir,
            host=args.host,
            port=args.port,
            admin_port=args.metrics_port,
            coalesce=not args.no_coalesce,
            max_batch=args.max_batch,
            poll_interval=max(args.poll_ms, 0.1) / 1_000.0,
            keep_generations=args.keep_generations,
            max_inflight=args.max_inflight,
            max_pending_writes=args.max_pending_writes,
            shed_retry_after_ms=args.shed_retry_ms,
            write_high_water=args.write_high_water,
            write_grace=args.write_grace,
            ack_timeout=args.ack_timeout,
            ready_timeout=args.ready_timeout,
            join_timeout=args.join_timeout,
        )
        # Fork before any event loop exists in this process.
        host, port = cluster.start()
        mode = "read-only" if cluster.state.read_only else "read-write"
        coalescing = "off" if args.no_coalesce else "on"

        async def _serve() -> None:
            admin_host, admin_port = await cluster.start_parent()
            cluster.install_signal_handlers()
            print(f"serving on {host}:{port} "
                  f"(cluster of {args.workers} workers, {mode}, "
                  f"coalescing {coalescing}, epoch {cluster.state.epoch})",
                  flush=True)
            print(f"cluster admin on {admin_host}:{admin_port} "
                  f"(snapshots in {cluster.store.root})", flush=True)
            await cluster.serve_until_shutdown()

        asyncio.run(_serve())
        print("shut down cleanly", flush=True)

    with _engine_for(args) as engine:
        if args.read_only and not engine.capabilities().is_frozen_snapshot:
            # Pin an immutable snapshot of whatever was loaded; the
            # server then refuses every write with a read-only error.
            if hasattr(engine, "snapshot"):
                engine = engine.snapshot()
            elif hasattr(engine, "freeze"):
                engine = engine.freeze()
            else:
                raise ReproError(
                    f"--read-only cannot snapshot a "
                    f"{type(engine).__name__}")
        try:
            if args.workers > 0:
                _run_cluster(engine)
            else:
                asyncio.run(_run(engine))
        except KeyboardInterrupt:
            print("interrupted; shut down", flush=True)
    return 0


BENCH_CHOICES = ("fig3.9", "fig3.10", "fig3.11", "fig3.12", "merging",
                 "worst-case", "chains", "ablation", "updates", "queries",
                 "io", "workloads")


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-tc`` argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-tc",
        description="Interval-compressed transitive closure (SIGMOD 1989 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    build = commands.add_parser("build", help="build (and optionally save) an index")
    build.add_argument("edges", help="edge-list file")
    build.add_argument("-o", "--output", help="write the index as JSON")
    build.add_argument("--policy", choices=POLICIES, default="alg1")
    build.add_argument("--gap", type=int, default=DEFAULT_GAP)
    build.add_argument("--merge", action="store_true",
                       help="apply adjacent-interval merging")
    build.add_argument(
        "--durable", metavar="PATH", default=None,
        help="instead of a JSON file, create a crash-safe durable store "
             "directory at PATH (write-ahead logged + checkpointed)")
    build.set_defaults(handler=_cmd_build)

    query = commands.add_parser("query", help="test reachability between two nodes")
    query.add_argument("index", nargs="?", default=None,
                       help="saved index (.json) or edge-list file "
                            "(omit with --durable)")
    query.add_argument("source")
    query.add_argument("destination")
    _add_engine_option(query)
    _add_durable_option(query)
    query.set_defaults(handler=_cmd_query)

    successors = commands.add_parser("successors", help="list all strict successors")
    successors.add_argument("index", nargs="?", default=None)
    successors.add_argument("node")
    _add_engine_option(successors)
    _add_durable_option(successors)
    successors.set_defaults(handler=_cmd_successors)

    predecessors = commands.add_parser("predecessors",
                                       help="list all strict predecessors")
    predecessors.add_argument("index", nargs="?", default=None)
    predecessors.add_argument("node")
    _add_engine_option(predecessors)
    _add_durable_option(predecessors)
    predecessors.set_defaults(handler=_cmd_predecessors)

    freeze = commands.add_parser(
        "freeze", help="compile an index into frozen flat-array buffers")
    freeze.add_argument("index", help="saved index (.json) or edge-list file")
    freeze.add_argument("-o", "--output", required=True,
                        help="write the frozen buffers (JSON or RTCF)")
    freeze.add_argument("--format", choices=("json", "rtcf"), default=None,
                        help="output format (default: rtcf when the output "
                             "ends in .rtcf, else json)")
    freeze.set_defaults(handler=_cmd_freeze)

    convert = commands.add_parser(
        "convert",
        help="migrate a JSON frozen index to the RTCF zero-copy binary "
             "container (atomic; prints the size and load-time delta)")
    convert.add_argument("index", help="saved frozen index (.json)")
    convert.add_argument("-o", "--output",
                         help="output path (default: input with .rtcf)")
    convert.add_argument("--verify", action="store_true",
                         help="CRC-check every section of the written file "
                              "during the load-time measurement")
    convert.set_defaults(handler=_cmd_convert)

    compact = commands.add_parser(
        "compact",
        help="fold a hybrid engine's delta into a fresh frozen base "
             "(converts a saved mutable index into a hybrid file)")
    compact.add_argument("index",
                         help="saved hybrid/mutable index (.json) or "
                              "edge-list file")
    compact.add_argument("-o", "--output",
                         help="write the hybrid index (defaults to the "
                              "input when it is a .json file)")
    compact.set_defaults(handler=_cmd_compact)

    update = commands.add_parser(
        "update", help="apply a +/- diff file to an index incrementally")
    update.add_argument("index", nargs="?", default=None,
                        help="saved index (.json) or edge-list file "
                             "(omit with --durable)")
    update.add_argument("diff", help="diff file: '+ a b' adds, '- a b' removes")
    update.add_argument("-o", "--output",
                        help="write the updated index (defaults to the input "
                             "when it is a .json index)")
    _add_durable_option(update)
    update.set_defaults(handler=_cmd_update)

    explain_cmd = commands.add_parser(
        "explain", help="explain one reachability answer")
    explain_cmd.add_argument("index")
    explain_cmd.add_argument("source")
    explain_cmd.add_argument("destination")
    explain_cmd.set_defaults(handler=_cmd_explain)

    describe_cmd = commands.add_parser(
        "describe", help="render the tree cover and interval labels")
    describe_cmd.add_argument("index")
    describe_cmd.add_argument("--no-tree", action="store_true",
                              help="omit the tree rendering")
    describe_cmd.set_defaults(handler=_cmd_describe)

    profile_cmd = commands.add_parser(
        "profile", help="structural metrics of an edge list")
    profile_cmd.add_argument("edges")
    profile_cmd.set_defaults(handler=_cmd_profile)

    stats = commands.add_parser(
        "stats",
        help="storage comparison for an edge list; --stats-json/--prom "
             "instead export engine metrics from a mixed workload")
    stats.add_argument("edges",
                       help="edge-list file or saved index (.json)")
    stats.add_argument("--inverse", action="store_true",
                       help="also measure the inverse closure (O(n^2))")
    stats.add_argument("--stats-json", action="store_true",
                       help="run a mixed workload over all four engines "
                            "and print the metrics snapshot as JSON")
    stats.add_argument("--prom", action="store_true",
                       help="like --stats-json but Prometheus text format")
    stats.set_defaults(handler=_cmd_stats)

    trace = commands.add_parser(
        "trace", help="run a query with tracing on and print the span tree")
    trace.add_argument("index", help="saved index (.json) or edge-list file")
    trace.add_argument("source")
    trace.add_argument("destination")
    _add_engine_option(trace)
    trace.add_argument("--last", type=int, default=16,
                       help="trace ring-buffer capacity (default 16)")
    trace.add_argument("--json", action="store_true",
                       help="print span trees as JSON instead of text")
    trace.set_defaults(handler=_cmd_trace)

    bench = commands.add_parser("bench", help="regenerate a paper figure")
    bench.add_argument("figure", choices=BENCH_CHOICES)
    bench.add_argument("--nodes", type=int, default=1000)
    bench.add_argument("--max-degree", type=int, default=10)
    bench.add_argument("--sample", type=int, default=20000)
    bench.add_argument("--seed", type=int, default=1989)
    bench.set_defaults(handler=_cmd_bench)

    fuzz_cmd = commands.add_parser(
        "fuzz",
        help="differential-fuzz the update algorithms against every engine")
    fuzz_cmd.add_argument("--ops", type=int, default=500,
                          help="number of operations to generate")
    fuzz_cmd.add_argument("--seed", type=int, default=None,
                          help="RNG seed; traces replay from this alone")
    fuzz_cmd.add_argument("--nodes", type=int, default=24,
                          help="seed-graph size")
    fuzz_cmd.add_argument("--degree", type=float, default=1.8,
                          help="seed-graph average out-degree")
    fuzz_cmd.add_argument("--gap", type=int, default=8,
                          help="numbering stride of the index under test")
    fuzz_cmd.add_argument("--numbering", choices=("integer", "fractional"),
                          default="integer")
    fuzz_cmd.add_argument("--workload", default="uniform",
                          help="seed-graph family (see `repro-tc bench "
                               "workloads`)")
    fuzz_cmd.add_argument("--engines",
                          default=",".join(DEFAULT_ENGINES),
                          help="comma-separated differential matrix "
                               "(interval is always implied; also: all)")
    fuzz_cmd.add_argument("--audit-every", type=int, default=1,
                          help="invariant-audit period in applied ops "
                               "(0 disables)")
    fuzz_cmd.add_argument("--check-every", type=int, default=50,
                          help="full differential-check period (0: only at "
                               "the end)")
    fuzz_cmd.add_argument("--crash-dir", default="tests/crashes",
                          help="where to write the crash file on failure")
    fuzz_cmd.add_argument("--no-shrink", action="store_true",
                          help="write the raw failing trace without "
                               "minimisation")
    fuzz_cmd.add_argument("--inject-fault", default=None,
                          help="install a named bug from "
                               "repro.testing.faults (harness self-test)")
    fuzz_cmd.set_defaults(handler=_cmd_fuzz)

    replay_cmd = commands.add_parser(
        "fuzz-replay", help="replay a fuzz crash file")
    replay_cmd.add_argument("crash", help="path to a crash .json")
    replay_cmd.set_defaults(handler=_cmd_fuzz_replay)

    checkpoint_cmd = commands.add_parser(
        "checkpoint",
        help="snapshot a durable store atomically and rotate its op log")
    checkpoint_cmd.add_argument("store", help="durable store directory")
    checkpoint_cmd.set_defaults(handler=_cmd_checkpoint)

    recover_cmd = commands.add_parser(
        "recover",
        help="open a durable store and report what recovery repaired")
    recover_cmd.add_argument("store", help="durable store directory")
    recover_cmd.set_defaults(handler=_cmd_recover)

    log_stats_cmd = commands.add_parser(
        "log-stats",
        help="read-only WAL and checkpoint accounting for a durable store")
    log_stats_cmd.add_argument("store", help="durable store directory")
    log_stats_cmd.set_defaults(handler=_cmd_log_stats)

    crash_cmd = commands.add_parser(
        "crash-fuzz",
        help="kill a durable store at every registered crash point and "
             "verify recovery against the set-closure oracle")
    crash_cmd.add_argument("--ops", type=int, default=500,
                           help="length of the randomized op stream")
    crash_cmd.add_argument("--seed", type=int, default=7,
                           help="RNG seed for the op stream and torn tails")
    crash_cmd.add_argument("--engine", choices=("interval", "hybrid"),
                           default="interval")
    crash_cmd.add_argument("--fsync-every", type=int, default=1,
                           help="WAL fsync batch size under test (loss "
                                "bound is fsync_every - 1 acknowledged ops)")
    crash_cmd.add_argument("--occurrences", type=int, default=2,
                           help="crash occurrences exercised per point")
    crash_cmd.add_argument("--no-bit-flips", action="store_true",
                           help="skip the bit-rot (flip one byte) phase")
    crash_cmd.set_defaults(handler=_cmd_crash_fuzz)

    serve = commands.add_parser(
        "serve",
        help="serve reachability over TCP (framed JSON + minimal HTTP)")
    serve.add_argument("index", nargs="?", default=None,
                       help="saved index (.json/.rtcf) or edge-list file")
    _add_engine_option(serve)
    _add_durable_option(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7411,
                       help="listening port (0 picks a free one)")
    serve.add_argument("--read-only", action="store_true",
                       help="serve a pinned immutable snapshot; refuse "
                            "all writes")
    serve.add_argument("--no-coalesce", action="store_true",
                       help="answer each check individually instead of "
                            "batching concurrent checks through one "
                            "reachable_many call")
    serve.add_argument("--max-batch", type=int, default=512,
                       help="drain a batch early past this many pending "
                            "checks (default 512)")
    serve.add_argument("--trace", action="store_true",
                       help="record per-request span trees (see the "
                            "'trace' command)")
    serve.add_argument("--trace-last", type=int, default=64,
                       help="trace ring-buffer capacity (default 64)")
    serve.add_argument("--workers", type=int, default=0,
                       help="preforked read-worker count; 0 (default) "
                            "serves single-process, N>=1 runs a cluster "
                            "of N workers sharing the port plus one "
                            "writer process publishing RTCF snapshot "
                            "generations")
    serve.add_argument("--snapshot-dir", default=None,
                       help="directory for cluster snapshot generations "
                            "(gen-<epoch>.rtcf + CURRENT); a private "
                            "tempdir when omitted")
    serve.add_argument("--metrics-port", type=int, default=0,
                       help="cluster admin/metrics port (merged "
                            "Prometheus view + /healthz); 0 picks a "
                            "free one")
    serve.add_argument("--poll-ms", type=float, default=20.0,
                       help="worker CURRENT-pointer poll interval, "
                            "milliseconds (default 20)")
    serve.add_argument("--keep-generations", type=int, default=2,
                       help="snapshot generations retained after "
                            "garbage collection (default 2)")
    serve.add_argument("--max-inflight", type=int, default=0,
                       help="admission cap on concurrently admitted "
                            "requests; excess is shed with an "
                            "'overloaded' error carrying retry_after_ms "
                            "(0 = unlimited, the default)")
    serve.add_argument("--max-pending-writes", type=int, default=0,
                       help="cap on queued-but-unapplied writes; a full "
                            "queue sheds new writes with 'overloaded' "
                            "(0 = unlimited, the default)")
    serve.add_argument("--shed-retry-ms", type=int, default=50,
                       help="retry_after_ms hint carried by shed "
                            "responses (default 50)")
    serve.add_argument("--write-high-water", type=int, default=0,
                       help="per-connection send-buffer high-water "
                            "mark, bytes; connections whose buffer "
                            "will not drain within --write-grace are "
                            "aborted (0 = disabled, the default)")
    serve.add_argument("--write-grace", type=float, default=10.0,
                       help="seconds a full send buffer may take to "
                            "drain before the connection is aborted "
                            "(default 10)")
    serve.add_argument("--ack-timeout", type=float, default=30.0,
                       help="cluster: seconds a worker waits for an "
                            "acked generation to become visible in its "
                            "mmap (default 30)")
    serve.add_argument("--ready-timeout", type=float, default=30.0,
                       help="cluster: seconds to wait for a forked "
                            "worker to start accepting (default 30)")
    serve.add_argument("--join-timeout", type=float, default=10.0,
                       help="cluster: seconds to wait for terminated "
                            "workers to exit before SIGKILL "
                            "(default 10)")
    serve.set_defaults(handler=_cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Console entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
