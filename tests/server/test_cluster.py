"""Cluster battery: forked workers, cross-process epochs, supervision.

Every test here spins up a real preforked cluster — separate OS
processes serving mmap'd generation files — so the invariants under
test (read-your-writes across the fork boundary, oracle agreement at
every served epoch, worker respawn) are exercised end to end, not
simulated.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time
from fractions import Fraction

import pytest

from repro.core.hybrid import HybridTCIndex
from repro.errors import ReproError
from repro.graph.generators import random_dag
from repro.server import cluster as cluster_module
from repro.server.client import ReachabilityClient, ServerError
from repro.server.cluster import ClusterServer, WorkerState
from repro.server.generations import GenerationStore
from repro.server.inprocess import ClusterThread
from repro.server.protocol import ProtocolError
from repro.testing.oracle import SetClosureOracle

from .harness import http_exchange

ARCS = [("a", "b"), ("b", "c"), ("a", "d")]


def _factory():
    return HybridTCIndex.from_arcs(ARCS)


def _cluster():
    return ClusterThread(_factory, workers=2)


def _http_json(thread, path):
    cluster = thread.cluster
    raw = thread.run_coro(http_exchange(
        cluster.admin_host, cluster.admin_port,
        b"GET " + path + b" HTTP/1.1\r\nHost: t\r\n\r\n"))
    head, _, body = raw.partition(b"\r\n\r\n")
    return head, body


# ----------------------------------------------------------------------
# basic serving through forked workers
# ----------------------------------------------------------------------

def test_both_workers_answer_queries():
    """Target each worker via its admin socket: both forked processes
    must hold a live snapshot and answer independently."""
    with _cluster() as thread:
        for worker_id in (0, 1):
            client = thread.connect_worker(worker_id)
            try:
                assert thread.run_coro(client.check("a", "c")) is True
                stats = thread.run_coro(client.stats())
                assert stats["worker_id"] == worker_id
                assert stats["generation"].startswith("gen-")
            finally:
                thread.run_coro(client.close())


def test_write_through_a_worker_reaches_every_worker():
    """Write lands on whatever worker the kernel picked, gets forwarded
    to the writer process, and — after the ack — every worker serves the
    new generation (the forwarding worker synchronously, its sibling via
    the poll loop)."""
    with _cluster() as thread:
        client = thread.connect()
        try:
            ack = thread.run_coro(client.add_arc("d", "c"))
        finally:
            thread.run_coro(client.close())
        assert ack >= 1
        deadline = time.monotonic() + 10.0
        for worker_id in (0, 1):
            pinned = thread.connect_worker(worker_id)
            try:
                while True:
                    stats = thread.run_coro(pinned.stats())
                    if stats["epoch"] >= ack:
                        break
                    assert time.monotonic() < deadline, \
                        f"worker {worker_id} never saw epoch {ack}"
                    time.sleep(0.005)
                assert thread.run_coro(pinned.check("d", "c")) is True
            finally:
                thread.run_coro(pinned.close())


def test_read_your_writes_on_one_connection():
    """The ISSUE's cross-process guarantee: an acked write is
    immediately visible to a read on the same connection, even though
    the write was applied in the writer process and the read is served
    from a worker's mmap of the published generation."""
    with _cluster() as thread:
        client = thread.connect()
        try:
            last = 0
            for i in range(5):
                ack = thread.run_coro(
                    client.add_node(f"n{i}", parents=["c"]))
                assert ack > last
                last = ack
                # Immediate read on the same connection: must see it.
                assert thread.run_coro(client.check("a", f"n{i}")) is True
        finally:
            thread.run_coro(client.close())


def _fractional_factory():
    """A hybrid whose index already numbers nodes with Fractions."""
    engine = HybridTCIndex.from_arcs(ARCS, numbering="fractional", gap=2)
    for name in ("e", "f", "g"):
        engine.add_node(name, ["c"])
    assert any(isinstance(number, Fraction)
               for number in engine.index.used_numbers)
    return engine


def test_fractional_index_publishes_and_serves():
    """Generations are stored in rank space, so a fractional-numbered
    index publishes like any other, before and after a write."""
    with ClusterThread(_fractional_factory, workers=2) as thread:
        client = thread.connect()
        try:
            assert thread.run_coro(client.check("a", "g")) is True
            ack = thread.run_coro(client.add_node("h", parents=["g"]))
            assert ack >= 1
            assert thread.run_coro(client.check("a", "h")) is True
            assert thread.run_coro(client.check("d", "h")) is False
        finally:
            thread.run_coro(client.close())


def test_writes_are_refused_when_serving_a_frozen_snapshot():
    with ClusterThread(lambda: HybridTCIndex.from_arcs(ARCS).snapshot(),
                       workers=2) as thread:
        assert thread.call("check", u="a", v="c") is True
        with pytest.raises(ServerError) as excinfo:
            thread.call("add-arc", u="c", v="d")
        assert excinfo.value.code == "read-only"


# ----------------------------------------------------------------------
# racing writers vs the oracle, across the process boundary
# ----------------------------------------------------------------------

class EpochTimeline:
    """Oracle state per published epoch (the same construction as
    tests/server/test_concurrency.py, here fed by acks that crossed a
    process boundary)."""

    def __init__(self, oracle: SetClosureOracle) -> None:
        self.oracle = oracle
        self.by_epoch = {0: dict(oracle.closure())}

    def apply(self, epoch: int, method: str, *args) -> None:
        getattr(self.oracle, method)(*args)
        self.by_epoch[epoch] = dict(self.oracle.closure())

    def check(self, epoch: int, source, destination) -> bool:
        return destination in self.by_epoch[epoch][source]


def test_every_raced_answer_matches_oracle_at_its_epoch():
    """Readers race a writer through the live cluster; every answer
    must match the oracle *at the epoch the worker says it served*.
    Workers re-attach to generations mid-race, so a stale-but-consistent
    answer is legal and a torn or unattributable one is not.  Readers
    keep reading until the writer is done, so a reader on the worker
    that does not forward the writes still spans several polls."""
    graph = random_dag(16, 1.6, 7)
    oracle = SetClosureOracle(arcs=graph.arcs(), nodes=graph.nodes())
    base_nodes = sorted(oracle.nodes(), key=repr)
    timeline = EpochTimeline(oracle)
    observations = []

    def cluster_factory():
        return HybridTCIndex.build(graph, max_delta=1_000_000,
                                   max_ratio=1_000_000.0)

    with ClusterThread(cluster_factory, workers=2) as thread:

        async def writer(done: asyncio.Event) -> None:
            import random
            rng = random.Random(99)
            client = await ReachabilityClient.connect(thread.host,
                                                      thread.port)
            try:
                for i in range(10):
                    parent = rng.choice(base_nodes)
                    node = f"w{i}"
                    epoch = await client.add_node(node, parents=[parent])
                    timeline.apply(epoch, "add_node", node)
                    timeline.apply(epoch, "add_arc", parent, node)
                    safe = [n for n in base_nodes
                            if n != parent
                            and not timeline.oracle.reachable(n, parent)]
                    if safe:
                        target = rng.choice(safe)
                        epoch = await client.add_arc(node, target)
                        timeline.apply(epoch, "add_arc", node, target)
                        epoch = await client.remove_arc(node, target)
                        timeline.apply(epoch, "remove_arc", node, target)
                    await asyncio.sleep(0.001)
            finally:
                done.set()
                await client.close()

        async def reader(seed: int, done: asyncio.Event) -> None:
            import random
            rng = random.Random(seed)
            client = await ReachabilityClient.connect(thread.host,
                                                      thread.port)
            try:
                checks = 0
                while checks < 100 or not done.is_set():
                    checks += 1
                    source = rng.choice(base_nodes)
                    destination = rng.choice(base_nodes)
                    response = await client.request("check", u=source,
                                                    v=destination)
                    assert response["ok"], response
                    observations.append((source, destination,
                                         response["result"],
                                         response["epoch"]))
                    if rng.random() < 0.1:
                        await asyncio.sleep(0)
            finally:
                await client.close()

        async def race() -> None:
            done = asyncio.Event()
            await asyncio.wait_for(
                asyncio.gather(writer(done), reader(1000, done),
                               reader(1001, done)), 120.0)

        thread.run_coro(race())

    assert observations, "readers observed nothing"
    seen_epochs = set()
    for source, destination, result, epoch in observations:
        assert epoch in timeline.by_epoch, \
            f"worker reported unknown epoch {epoch}"
        expected = timeline.check(epoch, source, destination)
        assert result == expected, \
            (f"check({source},{destination}) at epoch {epoch}: "
             f"got {result}, oracle says {expected}")
        seen_epochs.add(epoch)
    assert len(seen_epochs) > 1, "race never spanned an epoch boundary"


def test_concurrent_writers_through_different_connections_converge():
    """Several connections (spread across workers by the kernel) write
    concurrently; the final closure is the union of all their fans."""
    with _cluster() as thread:

        async def fan(writer_id: int) -> int:
            client = await ReachabilityClient.connect(thread.host,
                                                      thread.port)
            last = 0
            try:
                for i in range(4):
                    last = await client.add_node(
                        f"f{writer_id}.{i}", parents=["a"])
            finally:
                await client.close()
            return last

        async def race() -> list:
            return await asyncio.wait_for(
                asyncio.gather(*(fan(w) for w in range(3))), 120.0)

        acks = thread.run_coro(race())
        # Read-your-writes holds per connection; this read goes through
        # another one, whose worker re-attaches to the acked generation
        # within a poll interval.  Wait (bounded) for it to converge.
        deadline = time.monotonic() + 10.0
        while (thread.call("stats")["epoch"] < max(acks)
               and time.monotonic() < deadline):
            time.sleep(0.01)

        expected = {"a", "b", "c", "d"} | {
            f"f{w}.{i}" for w in range(3) for i in range(4)}
        assert set(thread.call("expand", u="a")) == expected
        # 12 writes → at most 12 epochs; folding may make it fewer, but
        # the final epoch must cover every ack.
        stats = thread.call("stats")
        assert stats["epoch"] >= max(acks)
        assert stats["epoch"] <= 12


# ----------------------------------------------------------------------
# supervision and the parent's merged control plane
# ----------------------------------------------------------------------

def test_killed_worker_is_respawned_and_serves_again():
    with _cluster() as thread:
        cluster = thread.cluster
        old_pid = cluster._workers[0].process.pid
        os.kill(old_pid, signal.SIGKILL)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            record = cluster._workers[0]
            if record.process.pid != old_pid and record.process.is_alive():
                break
            time.sleep(0.05)
        else:
            pytest.fail("worker 0 was not respawned")
        assert record.restarts >= 1
        # The respawned worker attached to the current generation and
        # answers on its (recreated) admin socket.
        client = thread.connect_worker(0)
        try:
            assert thread.run_coro(client.check("a", "c")) is True
        finally:
            thread.run_coro(client.close())


def test_parent_healthz_reports_epoch_generation_and_workers():
    with _cluster() as thread:
        client = thread.connect()
        try:
            thread.run_coro(client.add_arc("c", "d"))
        finally:
            thread.run_coro(client.close())
        head, body = _http_json(thread, b"/healthz")
        assert head.startswith(b"HTTP/1.1 200")
        health = json.loads(body)
        assert health["ok"] is True
        assert health["role"] == "writer"
        assert health["epoch"] >= 1
        assert health["generation"] == f"gen-{health['epoch']}.rtcf"
        workers = {w["worker_id"]: w for w in health["workers"]}
        assert set(workers) == {0, 1}
        assert all(w["alive"] for w in workers.values())


def test_parent_metrics_merge_all_workers():
    with _cluster() as thread:
        # Touch both workers so each records at least one request.
        for worker_id in (0, 1):
            client = thread.connect_worker(worker_id)
            try:
                thread.run_coro(client.check("a", "b"))
            finally:
                thread.run_coro(client.close())
        head, body = _http_json(thread, b"/metrics")
        assert head.startswith(b"HTTP/1.1 200")
        text = body.decode("utf-8")
        assert "# TYPE tc_server_requests_total counter" in text
        for tag in ('worker_id="0"', 'worker_id="1"', 'worker_id="writer"'):
            assert tag in text, f"missing {tag} in merged metrics"


# ----------------------------------------------------------------------
# the three timeouts, each against the hang it guards
# ----------------------------------------------------------------------

def test_await_epoch_gives_up_on_an_ack_that_never_appears(tmp_path,
                                                          monkeypatch):
    """A worker told "acked at epoch 5" by a writer whose generation
    never lands must answer ``server-error``, not spin forever."""
    monkeypatch.setattr(cluster_module, "DEFAULT_ACK_TIMEOUT", 0.05)
    store = GenerationStore(tmp_path)
    store.publish(HybridTCIndex.from_arcs(ARCS).snapshot(), 0)
    state = WorkerState(store, writer_path=str(tmp_path / "writer.sock"))

    async def scenario():
        with pytest.raises(ProtocolError) as excinfo:
            await state._await_epoch(5)
        return excinfo.value

    error = asyncio.run(scenario())
    assert error.code == "server-error"
    assert "epoch 5" in str(error)


def _never_ready(config, ready):
    time.sleep(60)


def _deaf_to_sigterm(config, ready):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    ready.set()
    time.sleep(60)


def test_spawn_gives_up_on_a_worker_that_never_signals_ready(monkeypatch):
    monkeypatch.setattr(cluster_module, "DEFAULT_READY_TIMEOUT", 0.2)
    monkeypatch.setattr(cluster_module, "_worker_main", _never_ready)
    server = ClusterServer(_factory(), workers=1)
    try:
        with pytest.raises(ReproError, match="failed to become ready"):
            server.start()
    finally:
        asyncio.run(server.stop_parent())


def test_stop_kills_a_worker_that_ignores_sigterm(monkeypatch):
    monkeypatch.setattr(cluster_module, "DEFAULT_JOIN_TIMEOUT", 0.2)
    monkeypatch.setattr(cluster_module, "_worker_main", _deaf_to_sigterm)
    server = ClusterServer(_factory(), workers=1)
    server.start()
    process = server._workers[0].process
    started = time.monotonic()
    asyncio.run(server.stop_parent())
    assert not process.is_alive()
    assert process.exitcode == -signal.SIGKILL
    assert time.monotonic() - started < 10.0
