"""Server workloads: ``serve_read`` and ``serve_write``.

Both start ``repro serve --engine hybrid`` as a subprocess and drive it
over TCP with the framed protocol (a 4-byte big-endian length, then
sorted-key JSON), framed here rather than through ``repro.server.client``
so that the generator's cost does not move with the program.

Connection A pipelines pages of 16 ``check`` requests in a closed loop.
In ``serve_read`` connection B keeps one ``check`` in flight from its own
process (``rtt_probe.py``), so its round trips never queue behind A's
page handling in this event loop.  In ``serve_write`` connection B is an
open-loop writer at one write per second.  Server-side numbers come from
the server's ``metrics`` op, read at the start and the end of the
measured window.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import random
import re
import selectors
import statistics
import struct
import subprocess
import sys
import time
from collections import deque
from pathlib import Path
from typing import Dict, List, Tuple

from common import (Result, make_dag, make_oracle, median, percentile,
                    proc_cpu_s, proc_peak_rss_mb)

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
_BANNER = re.compile(r"serving on ([0-9.]+):(\d+)")
_LENGTH = struct.Struct(">I")
clock = time.monotonic

#: Checks per pipelined page on connection A.
PAGE = 16
#: Pages in flight on connection A.  Enough that the server always has
#: queued work: with one page in flight the rate is set by how fast the
#: VM wakes each side up, which swings twofold from run to run.
DEPTH = 8
#: Seconds of load before the measured window opens.
WARMUP_S = 1.0
#: Seconds between scheduled writes.  At 5k nodes one write blocks the
#: event loop for ~0.25 s (add) or ~0.55 s (remove).  At one write per
#: second that is ~40% of the window, and the read rate swings with every
#: wobble in write cost; at one per two seconds it is ~20%.
WRITE_PERIOD_S = 2.0
#: Parents of each leaf the writer adds.
LEAF_PARENTS = 3
#: A generator busier than this may be what limits ``throughput_per_s``.
BUSY_LIMIT = 0.9
#: A writer later than this has stopped being an open loop.
LATE_LIMIT_MS = 50.0


def frame(payload: dict) -> bytes:
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return _LENGTH.pack(len(body)) + body


def split_frames(buffer: bytearray) -> List[bytes]:
    """Remove and return every complete frame body at the front of ``buffer``."""
    out = []
    position = 0
    while len(buffer) - position >= 4:
        (length,) = _LENGTH.unpack_from(buffer, position)
        end = position + 4 + length
        if end > len(buffer):
            break
        out.append(bytes(buffer[position + 4:end]))
        position = end
    del buffer[:position]
    return out


def check_tail(request_id: int, answer: bool) -> bytes:
    """The end of a correct ``check`` response; the epoch precedes it."""
    return (f',"id":{request_id},"ok":true,"result":'
            f'{"true" if answer else "false"}}}').encode()


def split_cpus():
    """(server CPUs, generator CPUs); (None, None) on a single CPU.

    The server gets a core of its own and the generator the rest, so
    that where the kernel happens to place the three processes cannot
    decide whose request waits.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, set(cpus[1:])


@contextlib.contextmanager
def pinned(cpus):
    """Run this process (and what it starts) on ``cpus``, if given."""
    saved = os.sched_getaffinity(0)
    if cpus is not None:
        os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


class Server:
    """One ``repro serve`` subprocess, up from launch to ready banner."""

    def __init__(self, edges: Path, workdir: Path, cpus) -> None:
        command = [sys.executable, "-m", "repro.cli", "serve", str(edges),
                   "--engine", "hybrid", "--port", "0"]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.log = open(workdir / "server.log", "ab")
        pin = None if cpus is None else lambda: os.sched_setaffinity(0, cpus)
        started = time.perf_counter()
        self.proc = subprocess.Popen(command, cwd=ROOT, env=env,
                                     stdout=subprocess.PIPE, stderr=self.log,
                                     text=True, preexec_fn=pin)
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(self.proc.stdout, selectors.EVENT_READ)
                ready = selector.select(timeout=120)
            line = self.proc.stdout.readline() if ready else ""
            self.setup_s = time.perf_counter() - started
            match = _BANNER.search(line)
            if not match:
                raise RuntimeError(f"server did not start: {line!r}; see "
                                   f"{workdir / 'server.log'}")
        except BaseException:
            self.stop()
            raise
        self.host, self.port = match.group(1), int(match.group(2))

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self.log.close()


def start_server(edges: Path, workdir: Path, setups: int,
                 cpus) -> Tuple[Server, float]:
    """Launch ``setups`` servers one after another; keep the last.

    Returns it with the median launch-to-banner time.
    """
    times = []
    for _ in range(setups - 1):
        server = Server(edges, workdir, cpus)
        times.append(server.setup_s)
        server.stop()
    server = Server(edges, workdir, cpus)
    times.append(server.setup_s)
    return server, median(times)


class Connection:
    """A framed connection with in-order, pipelined request/response.

    The server answers each connection's requests in order, so a FIFO
    of futures correlates responses without parsing ids.
    """

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.buffer = bytearray()
        self.ready: List[bytes] = []
        self.waiting: deque = deque()
        self.task = None

    @classmethod
    async def open(cls, server: Server) -> "Connection":
        reader, writer = await asyncio.open_connection(server.host, server.port)
        return cls(reader, writer)

    async def frames(self, count: int) -> List[bytes]:
        """The next ``count`` response frames, in order."""
        while len(self.ready) < count:
            chunk = await self.reader.read(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buffer += chunk
            self.ready += split_frames(self.buffer)
        out = self.ready[:count]
        del self.ready[:count]
        return out

    def start(self) -> None:
        """Switch to pipelined :meth:`call` use with a reader task."""
        self.task = asyncio.ensure_future(self._read_loop())

    async def _read_loop(self) -> None:
        while True:
            chunk = await self.reader.read(1 << 16)
            if not chunk:
                break
            self.buffer += chunk
            for body in split_frames(self.buffer):
                self.waiting.popleft().set_result(json.loads(body))
        for future in self.waiting:
            future.set_exception(ConnectionError("server closed"))

    async def call(self, payload: dict) -> dict:
        future = asyncio.get_running_loop().create_future()
        self.waiting.append(future)
        self.writer.write(frame(payload))
        return await future

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass
        if self.task is not None:
            await self.task


def make_pages(pairs) -> List[Tuple[bytes, List[bytes]]]:
    """Pre-encoded request pages and the tails their responses must end with."""
    pages = []
    for start in range(0, len(pairs) - PAGE + 1, PAGE):
        chunk = pairs[start:start + PAGE]
        request = b"".join(
            frame({"id": i, "op": "check", "u": u, "v": v})
            for i, (u, v, _) in enumerate(chunk))
        pages.append((request, [check_tail(i, want)
                                for i, (_, _, want) in enumerate(chunk)]))
    return pages


class PageLoad:
    """Connection A: ``DEPTH`` pipelined pages of checks, each slot a
    closed loop that sends its next page when the last one is answered.
    """

    def __init__(self, pages) -> None:
        self.pages = pages
        self.sent = 0
        self.wrong = 0
        self.in_window = 0

    async def run(self, conn: Connection, window: Tuple[float, float]) -> None:
        opens, closes = window
        inflight: deque = deque()
        for number in range(DEPTH):
            request, tails = self.pages[number % len(self.pages)]
            conn.writer.write(request)
            inflight.append(tails)
        number = DEPTH
        while inflight:
            bodies = await conn.frames(PAGE)
            done = clock()
            tails = inflight.popleft()
            self.sent += PAGE
            self.wrong += sum(not body.endswith(tail)
                              for body, tail in zip(bodies, tails))
            if opens <= done < closes:
                self.in_window += PAGE
            if done < closes:
                request, tails = self.pages[number % len(self.pages)]
                number += 1
                conn.writer.write(request)
                inflight.append(tails)


class Window:
    """Server counters, server CPU and generator CPU at both window edges."""

    def __init__(self, server: Server, control: Connection,
                 window: Tuple[float, float]) -> None:
        self.server = server
        self.control = control
        self.window = window
        self.edges = []

    async def run(self) -> None:
        for edge in self.window:
            await asyncio.sleep(max(0.0, edge - clock()))
            read_at = clock()
            cpu = proc_cpu_s(self.server.proc.pid)
            own = time.process_time()
            reply = await self.control.call({"id": 0, "op": "metrics"})
            self.edges.append((read_at, cpu, own, reply["result"]))

    def delta(self):
        """(seconds, server CPU s, generator CPU s, counters, histograms)."""
        (t0, cpu0, own0, m0), (t1, cpu1, own1, m1) = self.edges
        counters = {name: value - m0["counters"].get(name, 0)
                    for name, value in m1["counters"].items()}
        histograms = {}
        for name, digest in m1["histograms"].items():
            before = m0["histograms"].get(name) or {
                "count": 0, "sum": 0.0,
                "buckets": [[bound, 0] for bound, _ in digest["buckets"]]}
            histograms[name] = {
                "count": digest["count"] - before["count"],
                "sum": digest["sum"] - before["sum"],
                "buckets": [[bound, count - earlier] for (bound, count), (_, earlier)
                            in zip(digest["buckets"], before["buckets"])],
            }
        return t1 - t0, cpu1 - cpu0, own1 - own0, counters, histograms


def histogram_p50(digest: dict) -> float:
    """Median of a delta histogram, interpolated inside its bucket."""
    target = digest["count"] / 2
    lower_bound, lower_count = 0.0, 0
    for bound, cumulative in digest["buckets"]:
        if cumulative >= target:
            share = (target - lower_count) / max(1, cumulative - lower_count)
            return lower_bound + (bound - lower_bound) * share
        lower_bound, lower_count = bound, cumulative
    return lower_bound


def _server_errors(counters: Dict[str, float]) -> float:
    return sum(value for name, value in counters.items()
               if name.startswith("tc_server_errors_total"))


def _inputs(seed: int, workdir: Path, nodes: int):
    dag = make_dag(nodes, seed, "serve")
    edges = workdir / "serve.edges"
    dag.write(edges)
    oracle = make_oracle(dag, seed, sources=64, targets=0, pairs_per_source=16)
    return dag, edges, oracle


def _generator_health(result: Result, name: str, busy: float) -> None:
    result.notes.append(f"{name}: generator busy {busy:.2f} of the window")
    if busy > BUSY_LIMIT:
        result.notes.append(f"FLAG {name}: generator busy {busy:.2f} > "
                            f"{BUSY_LIMIT}; it may have set the read rate")


# ----------------------------------------------------------------------
# serve_read
# ----------------------------------------------------------------------
async def _read_scenario(server: Server, oracle, seconds: float, workdir: Path):
    pairs = oracle.pairs
    load = PageLoad(make_pages(pairs))
    opens = clock() + WARMUP_S
    window = (opens, opens + seconds)
    probe_pairs = workdir / "probe.json"
    probe_pairs.write_text(json.dumps(pairs[len(pairs) // 2:] + pairs[:len(pairs) // 2]))
    probe = await asyncio.create_subprocess_exec(
        sys.executable, str(HERE / "rtt_probe.py"), server.host,
        str(server.port), repr(window[0]), repr(window[1]), str(probe_pairs),
        stdout=asyncio.subprocess.PIPE)
    conn = await Connection.open(server)
    control = await Connection.open(server)
    control.start()
    scrapes = Window(server, control, window)
    try:
        await asyncio.gather(load.run(conn, window), scrapes.run())
        out, _ = await probe.communicate()
    finally:
        if probe.returncode is None:
            probe.kill()
            await probe.wait()
        await conn.close()
        await control.close()
    if probe.returncode != 0:
        raise RuntimeError(f"rtt probe exited with {probe.returncode}")
    return load, json.loads(out), scrapes.delta()


def serve_read(seed: int, seconds: float, workdir: Path, *, trace: bool,
               setups: int, nodes: int) -> Result:
    """Pipelined pages on A, single checks on B; no writes."""
    _, edges, oracle = _inputs(seed, workdir, nodes)
    server_cpus, generator_cpus = split_cpus()
    server, setup_s = start_server(edges, workdir, setups, server_cpus)
    try:
        with pinned(generator_cpus):
            load, probe, (span, server_cpu, own_cpu, counters, histograms) = \
                asyncio.run(_read_scenario(server, oracle, seconds, workdir))
        rss = proc_peak_rss_mb(server.proc.pid)
    finally:
        server.stop()
    rtts = probe["rtts"]
    result = Result(attempted=load.sent + probe["sent"],
                    failed=load.wrong + probe["wrong"])
    errors = _server_errors(counters)
    result.failed += int(errors)
    result.metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        # The mean, not the median: a single check lands either between
        # A's batches (~0.15 ms, about a third of them) or behind one
        # (2-4 ms), and the median jumps with that share from run to run.
        "latency_ms": statistics.mean(rtts) * 1e3,
        "throughput_per_s": load.in_window / seconds,
    }
    busy = own_cpu / span
    _generator_health(result, "serve_read", busy)
    p99 = percentile(rtts, 0.99)
    result.notes.append(f"serve_read: {load.in_window} pipelined checks and "
                        f"{len(rtts)} single checks in {span:.2f} s; single "
                        f"p99 {p99 * 1e3:.3f} ms over {len(rtts)} samples")
    if trace:
        service = histograms['tc_server_request_seconds{op="check"}']
        batches = histograms["tc_server_batch_size"]
        served = counters['tc_server_requests_total{op="check"}']
        result.layers = {
            "server.check_service_p50_us": histogram_p50(service) * 1e6,
            "server.coalesce_pairs_per_batch":
                batches["sum"] / max(1, batches["count"]),
            "server.cpu_us_per_check": server_cpu / served * 1e6,
            "server.errors": errors,
            "check_rtt_p50_ms": median(rtts) * 1e3,
            "check_rtt_p99_ms": p99 * 1e3,
            "client.cpu_us_per_op": own_cpu / load.in_window * 1e6,
            "client.busy_frac": busy,
        }
    return result


# ----------------------------------------------------------------------
# serve_write
# ----------------------------------------------------------------------
class Writer:
    """Connection B: open-loop writes, each timed from its scheduled send.

    Write ``2k`` adds a leaf under ``LEAF_PARENTS`` random original nodes
    and write ``2k + 1`` removes it, so the graph keeps its size and
    every answer between original nodes stays what the oracle says.
    """

    def __init__(self, nodes: List[str], seed: int, opens: float,
                 seconds: float) -> None:
        rng = random.Random(f"writer:{seed}")
        count = max(2, int(seconds / WRITE_PERIOD_S) // 2 * 2)
        self.schedule = [opens + k * WRITE_PERIOD_S for k in range(count)]
        self.leaves = [(f"leaf-{seed}-{k}", rng.sample(nodes, LEAF_PARENTS))
                       for k in range(count // 2)]
        self.acks: Dict[str, List[float]] = {"add-node": [], "remove-node": []}
        self.late: List[float] = []
        self.epochs: List[Tuple[int, int]] = []
        self.wrong = 0

    async def run(self, conn: Connection) -> None:
        added = {}
        tasks = []
        for k, due in enumerate(self.schedule):
            await asyncio.sleep(max(0.0, due - clock()))
            leaf, parents = self.leaves[k // 2]
            if k % 2 == 0:
                added[leaf] = asyncio.ensure_future(
                    self._write(conn, k, due, {"op": "add-node", "node": leaf,
                                               "parents": parents}))
                tasks.append(added[leaf])
            else:
                tasks.append(asyncio.ensure_future(self._remove(
                    conn, k, due, leaf, added[leaf])))
        await asyncio.gather(*tasks)

    async def _remove(self, conn, k, due, leaf, add) -> None:
        if not await add:  # a leaf that was never added cannot be removed
            return
        await self._write(conn, k, due, {"op": "remove-node", "node": leaf})

    async def _write(self, conn: Connection, k: int, due: float,
                     request: dict) -> bool:
        self.late.append(clock() - due)
        reply = await conn.call({"id": k, **request})
        self.acks[request["op"]].append(clock() - due)
        if not reply.get("ok"):
            self.wrong += 1
            return False
        self.epochs.append((k, reply["epoch"]))
        if request["op"] == "add-node":
            parent = request["parents"][0]
            seen = await conn.call({"id": k, "op": "check", "u": parent,
                                    "v": request["node"]})
            if seen.get("result") is not True or seen["epoch"] < reply["epoch"]:
                self.wrong += 1
        return True

    def epochs_monotone(self) -> bool:
        ordered = [epoch for _, epoch in sorted(self.epochs)]
        return all(a <= b for a, b in zip(ordered, ordered[1:]))


async def _write_scenario(server: Server, dag, oracle, seed: int,
                          seconds: float):
    load = PageLoad(make_pages(oracle.pairs))
    opens = clock() + WARMUP_S
    window = (opens, opens + seconds)
    writer = Writer(dag.nodes, seed, opens, seconds)
    conn = await Connection.open(server)
    writes = await Connection.open(server)
    control = await Connection.open(server)
    writes.start()
    control.start()
    scrapes = Window(server, control, window)
    try:
        await asyncio.gather(load.run(conn, window), scrapes.run(),
                             writer.run(writes))
    finally:
        for each in (conn, writes, control):
            await each.close()
    return load, writer, scrapes.delta()


def serve_write(seed: int, seconds: float, workdir: Path, *, trace: bool,
                setups: int, nodes: int) -> Result:
    """Pipelined pages on A while B adds and removes leaves."""
    dag, edges, oracle = _inputs(seed, workdir, nodes)
    server_cpus, generator_cpus = split_cpus()
    server, setup_s = start_server(edges, workdir, setups, server_cpus)
    try:
        with pinned(generator_cpus):
            load, writer, (span, server_cpu, own_cpu, counters, histograms) = \
                asyncio.run(_write_scenario(server, dag, oracle, seed,
                                            seconds))
        rss = proc_peak_rss_mb(server.proc.pid)
    finally:
        server.stop()
    adds, removes = writer.acks["add-node"], writer.acks["remove-node"]
    result = Result(attempted=load.sent + len(writer.schedule),
                    failed=load.wrong + writer.wrong
                    + int(_server_errors(counters)))
    if len(adds) + len(removes) != len(writer.schedule):
        result.failed += len(writer.schedule) - len(adds) - len(removes)
    if not writer.epochs_monotone():
        result.failed += 1
        result.notes.append("FLAG serve_write: ack epochs went backwards")
    result.metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "latency_ms": (median(adds) + median(removes)) / 2 * 1e3,
        "throughput_per_s": load.in_window / seconds,
    }
    late_ms = max(writer.late) * 1e3
    _generator_health(result, "serve_write", own_cpu / span)
    if late_ms > LATE_LIMIT_MS:
        result.notes.append(f"FLAG serve_write: writer ran {late_ms:.1f} ms "
                            f"late (limit {LATE_LIMIT_MS} ms)")
    result.notes.append(
        f"serve_write: {len(adds)} adds, p50 {median(adds) * 1e3:.1f} ms; "
        f"{len(removes)} removes, p50 {median(removes) * 1e3:.1f} ms; "
        f"{load.in_window} checks in {span:.2f} s; server busy "
        f"{server_cpu / span:.2f}, publishing "
        f"{histograms['tc_server_publish_seconds']['sum'] / span:.2f}")
    if trace:
        publish = histograms["tc_server_publish_seconds"]
        publishes = max(1, publish["count"])
        result.layers = {
            "server.publish_ms": publish["sum"] / publishes * 1e3,
            "server.publish_busy_frac": publish["sum"] / span,
            "server.writes_per_publish":
                counters["tc_server_writes_total"] / publishes,
            "add_ack_p50_ms": median(adds) * 1e3,
            "remove_ack_p50_ms": median(removes) * 1e3,
            "add_ack_p90_ms": percentile(adds, 0.9) * 1e3,
            "remove_ack_p90_ms": percentile(removes, 0.9) * 1e3,
            "client.write_late_ms": late_ms,
        }
    return result
