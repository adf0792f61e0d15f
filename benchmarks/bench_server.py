"""Reachability service throughput: batch coalescing on vs off.

The server's coalescer gathers ``check`` requests that arrive in the
same event-loop ready cycle — across any number of connections — and
answers them through one vectorised ``reachable_many`` call against a
single pinned snapshot.  This harness measures what that buys at the
wire: a real ``repro serve`` subprocess, hammered by closed-loop asyncio
clients, once with coalescing on and once with ``--no-coalesce``.

Two workloads:

* ``single_check`` — each client sends one ``check`` per round trip,
  the worst case for coalescing (batches only form across connections);
* ``page16_pipeline`` — each client pipelines a 16-check page per
  round trip (the "is each hit on this result page reachable?" shape),
  where one connection's flush alone forms a batch.

Run as a script to (re)generate ``BENCH_server.json`` at the repo root::

    $ python benchmarks/bench_server.py            # full matrix
    $ python benchmarks/bench_server.py --smoke    # CI-sized sanity run

The pytest wrapper runs the same harness at smoke scale against a
throwaway output path.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from random import Random
from typing import List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_ROOT = REPO_ROOT / "src"
if str(SRC_ROOT) not in sys.path:  # script mode: make `repro` importable
    sys.path.insert(0, str(SRC_ROOT))

from repro.graph.generators import random_dag  # noqa: E402
from repro.graph.io import load_edge_list, save_edge_list  # noqa: E402
from repro.server.protocol import encode_frame, read_frame  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_server.json"
_ADDRESS = re.compile(r"serving on ([0-9.]+):(\d+)")


# ----------------------------------------------------------------------
# server subprocess
# ----------------------------------------------------------------------
def start_server(edges: Path, *, coalesce: bool,
                 workers: int = 0, snapshot_dir: Optional[Path] = None,
                 max_inflight: int = 0,
                 ) -> Tuple[subprocess.Popen, str, int]:
    """Launch ``repro serve`` on a free port; return (proc, host, port).

    With ``workers`` > 0 this is a preforked cluster (the banner prints
    only after every worker is attached and accepting).  With
    ``max_inflight`` > 0 the server sheds excess load with
    ``overloaded`` responses instead of queueing without bound.
    """
    command = [sys.executable, "-m", "repro.cli", "serve", str(edges),
               "--engine", "hybrid", "--port", "0"]
    if workers:
        command += ["--workers", str(workers)]
        if snapshot_dir is not None:
            command += ["--snapshot-dir", str(snapshot_dir)]
    if max_inflight:
        command += ["--max-inflight", str(max_inflight)]
    if not coalesce:
        command.append("--no-coalesce")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_ROOT) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    match = _ADDRESS.search(line)
    if not match:
        proc.terminate()
        _, stderr = proc.communicate(timeout=10)
        raise RuntimeError(f"server did not start: {line!r}\n{stderr}")
    return proc, match.group(1), int(match.group(2))


def stop_server(proc: subprocess.Popen) -> None:
    proc.terminate()
    try:
        proc.communicate(timeout=10)
    except subprocess.TimeoutExpired:  # pragma: no cover - defensive
        proc.kill()
        proc.communicate()


# ----------------------------------------------------------------------
# closed-loop client load
# ----------------------------------------------------------------------
async def _worker(host: str, port: int, pairs: List[Tuple[str, str]],
                  page: int, measure_start: float, deadline: float,
                  latencies: List[float], counter: List[int]) -> None:
    """One closed-loop client: send a page, await every answer, repeat."""
    reader, writer = await asyncio.open_connection(host, port)
    request_id = 0
    cursor = 0
    try:
        while True:
            now = time.perf_counter()
            if now >= deadline:
                return
            frames = []
            for _ in range(page):
                source, destination = pairs[cursor % len(pairs)]
                cursor += 1
                frames.append(encode_frame({"id": request_id, "op": "check",
                                            "u": source, "v": destination}))
                request_id += 1
            started = time.perf_counter()
            writer.write(b"".join(frames))
            await writer.drain()
            for _ in range(page):
                response = await read_frame(reader)
                assert response is not None, "server closed mid-benchmark"
            elapsed = time.perf_counter() - started
            if started >= measure_start:
                latencies.append(elapsed)
                counter[0] += page
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


def _percentile(sorted_values: List[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                int(fraction * (len(sorted_values) - 1) + 0.5))
    return sorted_values[index]


def run_cell(host: str, port: int, pairs: List[Tuple[str, str]], *,
             concurrency: int, page: int, warmup: float, duration: float,
             repeats: int = 1) -> dict:
    """Hammer the server with ``concurrency`` closed-loop clients.

    Best-of-``repeats``: scheduler noise on a shared box only ever
    *lowers* throughput, so the fastest rep is the least-noisy one.
    """
    best = None
    for _ in range(repeats):
        latencies: List[float] = []
        counter = [0]

        async def scenario() -> None:
            start = time.perf_counter()
            measure_start = start + warmup
            deadline = measure_start + duration
            await asyncio.gather(*(
                _worker(host, port, pairs[offset:] + pairs[:offset], page,
                        measure_start, deadline, latencies, counter)
                for offset in range(concurrency)))

        asyncio.run(scenario())
        latencies.sort()
        cell = {
            "requests": counter[0],
            "req_per_sec": round(counter[0] / duration, 1),
            "round_trip_p50_ms": round(
                _percentile(latencies, 0.50) * 1e3, 3),
            "round_trip_p99_ms": round(
                _percentile(latencies, 0.99) * 1e3, 3),
        }
        if best is None or cell["req_per_sec"] > best["req_per_sec"]:
            best = cell
    return best


# ----------------------------------------------------------------------
# open-loop (fixed arrival rate) load
# ----------------------------------------------------------------------
async def _open_loop_connection(host: str, port: int,
                                pairs: List[Tuple[str, str]], rate: float,
                                start: float, measure_start: float,
                                deadline: float, latencies: List[float],
                                late_latencies: List[float],
                                stats: dict) -> None:
    """One open-loop sender: frames go out on a fixed schedule whether
    or not earlier answers have arrived.  Latency is measured from the
    *scheduled* send time, so queueing delay under overload is charged
    to the server (no coordinated omission).  Requests scheduled in the
    second half of the window also land in ``late_latencies``: a queue
    that grows without bound shows up as a second half far slower than
    the first."""
    reader, writer = await asyncio.open_connection(host, port)
    in_flight: dict = {}  # id -> scheduled send time
    midpoint = (measure_start + deadline) / 2.0

    async def receiver() -> None:
        while True:
            response = await read_frame(reader)
            if response is None:
                return
            scheduled = in_flight.pop(response.get("id"), None)
            if scheduled is None or scheduled < measure_start:
                continue
            error = response.get("error")
            if error is None:
                elapsed = time.perf_counter() - scheduled
                latencies.append(elapsed)
                if scheduled >= midpoint:
                    late_latencies.append(elapsed)
                stats["answered"] += 1
            elif error.get("code") == "overloaded":
                stats["overloaded"] += 1
                hint = error.get("retry_after_ms")
                if hint is not None:
                    stats["retry_after_ms"] = hint
            else:
                stats["errors"] += 1

    receive_task = asyncio.create_task(receiver())
    interval = 1.0 / rate
    next_send = start
    request_id = 0
    cursor = 0
    try:
        while next_send < deadline:
            now = time.perf_counter()
            if next_send > now:
                await asyncio.sleep(next_send - now)
            source, destination = pairs[cursor % len(pairs)]
            cursor += 1
            in_flight[request_id] = next_send
            writer.write(encode_frame({"id": request_id, "op": "check",
                                       "u": source, "v": destination}))
            request_id += 1
            if next_send >= measure_start:
                stats["offered"] += 1
            next_send += interval
        await writer.drain()
        # Collect stragglers: under overload the tail keeps arriving
        # after the last send; give it a bounded settle window.
        settle = time.perf_counter() + 10.0
        while in_flight and time.perf_counter() < settle:
            await asyncio.sleep(0.01)
    finally:
        receive_task.cancel()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


def run_open_loop_cell(host: str, port: int, pairs: List[Tuple[str, str]],
                       *, rate: float, connections: int, warmup: float,
                       duration: float) -> dict:
    """Offer ``rate`` check/s across ``connections`` senders; report the
    rate the server actually achieved and the latency distribution."""
    latencies: List[float] = []
    late_latencies: List[float] = []
    stats = {"offered": 0, "answered": 0, "overloaded": 0, "errors": 0,
             "retry_after_ms": None}

    async def scenario() -> None:
        start = time.perf_counter()
        measure_start = start + warmup
        deadline = measure_start + duration
        per_connection = rate / connections
        await asyncio.gather(*(
            _open_loop_connection(host, port,
                                  pairs[offset:] + pairs[:offset],
                                  per_connection,
                                  start + offset * (1.0 / rate),
                                  measure_start, deadline, latencies,
                                  late_latencies, stats)
            for offset in range(connections)))

    asyncio.run(scenario())
    latencies.sort()
    late_latencies.sort()
    return {
        "offered_rate": round(stats["offered"] / duration, 1),
        "achieved_rate": round(stats["answered"] / duration, 1),
        "offered": stats["offered"],
        "answered": stats["answered"],
        "overloaded": stats["overloaded"],
        "errors": stats["errors"],
        "retry_after_ms": stats["retry_after_ms"],
        "latency_p50_ms": round(_percentile(latencies, 0.50) * 1e3, 3),
        "latency_p99_ms": round(_percentile(latencies, 0.99) * 1e3, 3),
        "second_half_p99_ms": round(
            _percentile(late_latencies, 0.99) * 1e3, 3),
    }


def run_open_loop(host: str, port: int, pairs: List[Tuple[str, str]], *,
                  rates: Tuple[float, ...], connections: int,
                  warmup: float, duration: float) -> dict:
    cells = {}
    for rate in rates:
        cells[str(int(rate))] = run_open_loop_cell(
            host, port, pairs, rate=rate, connections=connections,
            warmup=warmup, duration=duration)
    return {"connections": connections, "per_rate": cells}


# ----------------------------------------------------------------------
# overload: offered rate >> capacity, load shedding on vs off
# ----------------------------------------------------------------------
def run_overload(edges: Path, pairs: List[Tuple[str, str]], *,
                 probe_concurrency: int, connections: int, factor: float,
                 max_inflight: int, warmup: float, duration: float) -> dict:
    """Drive the server far past capacity with and without shedding.

    A closed-loop probe measures sustainable throughput first; the
    open-loop phase then *offers* ``factor`` times that rate.  The
    closed-loop probe is round-trip-bound and so understates what the
    coalesced open-loop path absorbs (roughly 3x on the reference box);
    ``factor`` must clear that gap before the cell shows overload at
    all — hence the default of 6.  With ``--max-inflight`` set, the
    excess comes back immediately as ``overloaded`` + ``retry_after_ms``
    and the admitted tail stays bounded (second-half p99 tracks the
    first half); without it, every request queues, and the latency of
    the second half of the window pulls away from the first — the queue
    is growing without bound."""
    proc, host, port = start_server(edges, coalesce=True)
    try:
        probe = run_cell(host, port, pairs, concurrency=probe_concurrency,
                         page=1, warmup=warmup, duration=duration)
        offered = max(200.0, probe["req_per_sec"] * factor)
        shed_off = run_open_loop_cell(host, port, pairs, rate=offered,
                                      connections=connections,
                                      warmup=warmup, duration=duration)
    finally:
        stop_server(proc)
    proc, host, port = start_server(edges, coalesce=True,
                                    max_inflight=max_inflight)
    try:
        shed_on = run_open_loop_cell(host, port, pairs, rate=offered,
                                     connections=connections,
                                     warmup=warmup, duration=duration)
    finally:
        stop_server(proc)
    return {
        "workload": "single_check open-loop at %gx capacity" % factor,
        "overload_factor": factor,
        "max_inflight": max_inflight,
        "connections": connections,
        "capacity_probe": probe,
        "offered_rate_target": round(offered, 1),
        "shed_off": shed_off,
        "shed_on": shed_on,
    }


# ----------------------------------------------------------------------
# worker scaling (preforked cluster, 1/2/4/8 read workers)
# ----------------------------------------------------------------------
def run_worker_scaling(edges: Path, pairs: List[Tuple[str, str]], *,
                       levels: Tuple[int, ...], concurrency: int,
                       warmup: float, duration: float,
                       repeats: int = 1) -> dict:
    """Closed-loop single-check throughput at each worker count.

    Every level is a fresh ``repro serve --workers N`` cluster over the
    same graph; the single-process server runs first as the reference.
    ``speedup_vs_1`` is relative to the 1-worker cluster (apples to
    apples: same forwarding and generation machinery, more readers).
    """
    cells: dict = {}
    with tempfile.TemporaryDirectory(prefix="bench-cluster-") as scratch:
        variants = [("single_process", 0)] + [
            (str(level), level) for level in levels]
        for key, workers in variants:
            snapshot_dir = Path(scratch) / f"snap-{key}"
            proc, host, port = start_server(
                edges, coalesce=True, workers=workers,
                snapshot_dir=snapshot_dir if workers else None)
            try:
                cells[key] = run_cell(host, port, pairs,
                                      concurrency=concurrency, page=1,
                                      warmup=warmup, duration=duration,
                                      repeats=repeats)
            finally:
                stop_server(proc)
    one = cells.get(str(levels[0]), {}).get("req_per_sec") or None
    for key, cell in cells.items():
        if key == "single_process":
            continue
        cell["speedup_vs_1"] = round(
            cell["req_per_sec"] / one, 3) if one else None
    return {"workload": "single_check closed-loop",
            "concurrency": concurrency, "per_workers": cells}


# ----------------------------------------------------------------------
# the matrix
# ----------------------------------------------------------------------
def run_benchmark(*, nodes: int, degree: float, seed: int,
                  concurrency_levels: Tuple[int, ...], warmup: float,
                  duration: float, repeats: int = 1,
                  pair_pool: int = 4096,
                  open_loop_rates: Tuple[float, ...] = (500.0, 2000.0),
                  open_loop_connections: int = 4,
                  worker_levels: Tuple[int, ...] = (1, 2, 4, 8),
                  scaling_concurrency: int = 16,
                  overload_factor: float = 6.0,
                  overload_connections: int = 8,
                  overload_max_inflight: int = 256,
                  overload_probe_concurrency: int = 16) -> dict:
    graph = random_dag(nodes, degree, seed)
    with tempfile.TemporaryDirectory(prefix="bench-server-") as scratch:
        edges = Path(scratch) / "graph.edges"
        save_edge_list(graph, edges)
        # Query with the labels the server will load (edge-list label
        # round-trip), so hit rates match what the server sees.
        loaded = load_edge_list(edges)
        node_list = sorted(loaded.nodes(), key=repr)
        rng = Random(seed + 1)
        pairs = [(rng.choice(node_list), rng.choice(node_list))
                 for _ in range(pair_pool)]

        workloads = {"single_check": 1, "page16_pipeline": 16}
        results: dict = {name: {"page": page, "per_concurrency": {}}
                         for name, page in workloads.items()}
        # Both servers run for the whole matrix, and each cell's reps
        # alternate on/off so the two modes see the same box noise —
        # a background burst can no longer skew one mode's whole phase.
        servers = {}
        try:
            for coalesce in (True, False):
                mode = "coalesce_on" if coalesce else "coalesce_off"
                servers[mode] = start_server(edges, coalesce=coalesce)
            for name, page in workloads.items():
                for concurrency in concurrency_levels:
                    cell: dict = {}
                    for _ in range(repeats):
                        for mode, (_, host, port) in servers.items():
                            rep = run_cell(host, port, pairs,
                                           concurrency=concurrency,
                                           page=page, warmup=warmup,
                                           duration=duration)
                            if (mode not in cell or rep["req_per_sec"]
                                    > cell[mode]["req_per_sec"]):
                                cell[mode] = rep
                    results[name]["per_concurrency"][str(concurrency)] = cell
            # Open loop runs against the coalescing server: fixed
            # arrival rate, latency charged from the scheduled send.
            _, on_host, on_port = servers["coalesce_on"]
            open_loop = run_open_loop(
                on_host, on_port, pairs, rates=open_loop_rates,
                connections=open_loop_connections, warmup=warmup,
                duration=duration)
        finally:
            for proc, _, _ in servers.values():
                stop_server(proc)

        for name in workloads:
            for concurrency, cell in results[name]["per_concurrency"].items():
                on = cell["coalesce_on"]["req_per_sec"]
                off = cell["coalesce_off"]["req_per_sec"]
                cell["throughput_ratio"] = round(on / off, 3) if off else None

        worker_scaling = run_worker_scaling(
            edges, pairs, levels=worker_levels,
            concurrency=scaling_concurrency, warmup=warmup,
            duration=duration, repeats=repeats) if worker_levels else None

        overload = run_overload(
            edges, pairs, probe_concurrency=overload_probe_concurrency,
            connections=overload_connections, factor=overload_factor,
            max_inflight=overload_max_inflight, warmup=warmup,
            duration=duration)

    return {
        "meta": {
            "nodes": nodes,
            "degree": degree,
            "arcs": graph.num_arcs,
            "seed": seed,
            "concurrency_levels": list(concurrency_levels),
            "warmup_seconds": warmup,
            "duration_seconds": duration,
            "repeats_best_of": repeats,
            "pair_pool": pair_pool,
            "python": sys.version.split()[0],
            "cpu_count": os.cpu_count(),
            "transport": "framed JSON over TCP, closed-loop clients",
        },
        "workloads": results,
        "open_loop": open_loop,
        "worker_scaling": worker_scaling,
        "overload": overload,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="served-reachability throughput, coalescing on vs off")
    parser.add_argument("--nodes", type=int, default=5000)
    parser.add_argument("--degree", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=1989)
    parser.add_argument("--concurrency", type=int, nargs="+",
                        default=[1, 8, 32, 64])
    parser.add_argument("--warmup", type=float, default=0.4,
                        help="seconds of unmeasured traffic per cell")
    parser.add_argument("--duration", type=float, default=2.0,
                        help="measured seconds per cell")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N reps per cell")
    parser.add_argument("--open-loop-rates", type=float, nargs="+",
                        default=[500.0, 2000.0],
                        help="offered check/s for the open-loop cells")
    parser.add_argument("--open-loop-connections", type=int, default=4)
    parser.add_argument("--workers", type=int, nargs="+",
                        default=[1, 2, 4, 8],
                        help="cluster sizes for the worker-scaling cells")
    parser.add_argument("--scaling-concurrency", type=int, default=16,
                        help="closed-loop clients per worker-scaling cell")
    parser.add_argument("--overload-factor", type=float, default=6.0,
                        help="offered rate as a multiple of probed capacity")
    parser.add_argument("--overload-connections", type=int, default=8)
    parser.add_argument("--overload-max-inflight", type=int, default=256,
                        help="admission cap for the shed-on overload run")
    parser.add_argument("--overload-probe-concurrency", type=int,
                        default=16)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced scale for CI (overrides scale flags)")
    parser.add_argument("--output", default=str(DEFAULT_OUTPUT))
    args = parser.parse_args(argv)

    if args.smoke:
        args.nodes = min(args.nodes, 600)
        args.concurrency = [1, 8]
        args.warmup = min(args.warmup, 0.1)
        args.duration = min(args.duration, 0.4)
        args.repeats = min(args.repeats, 1)
        args.open_loop_rates = [300.0]
        args.open_loop_connections = 2
        args.workers = [1, 2]
        args.scaling_concurrency = 8
        args.overload_connections = 4
        args.overload_max_inflight = 8
        args.overload_probe_concurrency = 8

    result = run_benchmark(nodes=args.nodes, degree=args.degree,
                           seed=args.seed,
                           concurrency_levels=tuple(args.concurrency),
                           warmup=args.warmup, duration=args.duration,
                           repeats=args.repeats,
                           open_loop_rates=tuple(args.open_loop_rates),
                           open_loop_connections=args.open_loop_connections,
                           worker_levels=tuple(args.workers),
                           scaling_concurrency=args.scaling_concurrency,
                           overload_factor=args.overload_factor,
                           overload_connections=args.overload_connections,
                           overload_max_inflight=args.overload_max_inflight,
                           overload_probe_concurrency=(
                               args.overload_probe_concurrency))
    Path(args.output).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    print(f"\nresults written to {args.output}")
    return 0


# ----------------------------------------------------------------------
# pytest wrapper (collected via the bench_*.py pattern)
# ----------------------------------------------------------------------
def test_server_bench_smoke(tmp_path):
    """The harness runs end to end and produces a sane document."""
    result = run_benchmark(nodes=400, degree=1.8, seed=7,
                           concurrency_levels=(1, 4), warmup=0.05,
                           duration=0.25, open_loop_rates=(200.0,),
                           open_loop_connections=2, worker_levels=(1, 2),
                           scaling_concurrency=4,
                           overload_connections=2,
                           overload_max_inflight=4,
                           overload_probe_concurrency=4)
    (tmp_path / "BENCH_server.json").write_text(json.dumps(result))
    for name in ("single_check", "page16_pipeline"):
        for cell in result["workloads"][name]["per_concurrency"].values():
            assert cell["coalesce_on"]["requests"] > 0
            assert cell["coalesce_off"]["requests"] > 0
            assert cell["coalesce_on"]["round_trip_p50_ms"] <= \
                cell["coalesce_on"]["round_trip_p99_ms"]
            assert cell["throughput_ratio"] is not None
    open_cell = result["open_loop"]["per_rate"]["200"]
    assert open_cell["answered"] > 0
    assert open_cell["achieved_rate"] <= open_cell["offered_rate"] * 1.05
    assert open_cell["latency_p50_ms"] <= open_cell["latency_p99_ms"]
    scaling = result["worker_scaling"]["per_workers"]
    assert set(scaling) == {"single_process", "1", "2"}
    for cell in scaling.values():
        assert cell["requests"] > 0
    assert scaling["1"]["speedup_vs_1"] == 1.0
    overload = result["overload"]
    assert overload["capacity_probe"]["requests"] > 0
    for key in ("shed_off", "shed_on"):
        assert overload[key]["offered"] > 0
        assert overload[key]["answered"] > 0
    # At 4x capacity behind a tiny admission cap, shedding must fire,
    # and every shed carries the retry hint.
    assert overload["shed_on"]["overloaded"] > 0
    assert overload["shed_on"]["retry_after_ms"] is not None
    assert overload["shed_off"]["overloaded"] == 0
    # The on-beats-off and worker-speedup acceptance bars are judged on
    # the committed full-scale BENCH_server.json (with meta.cpu_count in
    # hand), not at smoke scale, where cells are too short for stable
    # ratios.


if __name__ == "__main__":
    sys.exit(main())
