"""Overload protection: deadlines, admission control, slow clients.

Shedding decisions happen at deterministic points (admission at parse,
write-queue check before enqueue, deadline checks before dispatch and
again at encode), so these tests drive them without load generators:
a burst of frames in one chunk, a write queue the writer has not yet
drained, a deadline budget of a fraction of a microsecond.
"""

from __future__ import annotations

import asyncio
import json
import socket

import pytest

from repro.core.hybrid import HybridTCIndex
from repro.obs.metrics import MetricsRegistry
from repro.server import app
from repro.server.app import SHED_RETRY_AFTER_MS
from repro.server.client import ReachabilityClient, ServerError
from repro.server.protocol import (OverloadedError, encode_frame,
                                   read_frame)
from repro.server.state import ServeState

from .harness import http_exchange, run, serving


def _engine():
    engine = HybridTCIndex.from_arcs([("a", "b"), ("b", "c")])
    engine.add_node("x")
    return engine


class TestAdmissionControl:
    def test_burst_beyond_budget_is_shed_with_retry_hint(self):
        """Six checks arrive in one chunk against a budget of one: the
        first is admitted, the rest draw ``overloaded`` immediately —
        before any engine work — each carrying the server's hint."""
        async def scenario():
            async with serving(_engine(),
                               max_inflight=1) as (_, host, port):
                reader, writer = await asyncio.open_connection(host, port)
                frames = [encode_frame({"id": index, "op": "check",
                                        "u": "a", "v": "c"})
                          for index in range(6)]
                writer.write(b"".join(frames))
                await writer.drain()
                responses = [await read_frame(reader) for _ in range(6)]
                writer.close()

                by_id = {response["id"]: response
                         for response in responses}
                assert by_id[0]["ok"] and by_id[0]["result"] is True
                for index in range(1, 6):
                    error = by_id[index]["error"]
                    assert error["code"] == "overloaded"
                    assert error["retry_after_ms"] == SHED_RETRY_AFTER_MS
        run(scenario())

    def test_budget_frees_after_completion(self):
        """Shedding is about concurrency, not rate: once the burst is
        answered the budget is whole again."""
        async def scenario():
            async with serving(_engine(),
                               max_inflight=1) as (_, host, port):
                client = await ReachabilityClient.connect(host, port)
                try:
                    for _ in range(5):  # sequential: never over budget
                        assert await client.check("a", "c") is True
                finally:
                    await client.close()
        run(scenario())

    def test_healthz_reports_the_overload_section(self):
        async def scenario():
            async with serving(_engine(),
                               max_inflight=3) as (_, host, port):
                reader, writer = await asyncio.open_connection(host, port)
                frames = [encode_frame({"id": index, "op": "check",
                                        "u": "a", "v": "b"})
                          for index in range(6)]
                writer.write(b"".join(frames))
                await writer.drain()
                for _ in range(6):
                    await read_frame(reader)
                writer.close()

                raw = await http_exchange(
                    host, port, b"GET /healthz HTTP/1.1\r\n\r\n")
                body = raw.split(b"\r\n\r\n", 1)[1]
                overload = json.loads(body)["overload"]
                assert overload["max_inflight"] == 3
                assert overload["inflight"] == 0
                assert overload["shed_total"] == 3
                assert overload["slow_client_aborts_total"] == 0
        run(scenario())

    def test_disabled_budget_admits_everything(self):
        async def scenario():
            async with serving(_engine()) as (server, host, port):
                reader, writer = await asyncio.open_connection(host, port)
                frames = [encode_frame({"id": index, "op": "check",
                                        "u": "a", "v": "c"})
                          for index in range(64)]
                writer.write(b"".join(frames))
                await writer.drain()
                for index in range(64):
                    response = await read_frame(reader)
                    assert response["ok"]
                writer.close()
                assert server._shed.value == 0
        run(scenario())


class TestWriteQueueCap:
    def test_full_queue_sheds_before_enqueue(self):
        async def scenario():
            state = ServeState(HybridTCIndex.from_arcs([("a", "b")]),
                               metrics=MetricsRegistry(),
                               max_pending_writes=1)
            state.start()
            first = asyncio.get_running_loop().create_task(
                state.submit("add-node", ("c", ["b"])))
            await asyncio.sleep(0)  # first submit enqueues; writer not run
            assert state._queue.qsize() == 1
            with pytest.raises(OverloadedError) as caught:
                await state.submit("add-node", ("d", ["b"]))
            assert "not applied" in str(caught.value)
            assert state._writes_shed.value == 1
            # The queued write is untouched by the shed and still lands.
            assert await first == 1
            assert "c" in state.snapshot.engine
            assert "d" not in state.snapshot.engine
            await state.stop()
        run(scenario())

    def test_stats_surface_the_cap(self):
        async def scenario():
            async with serving(_engine(), max_pending_writes=7) \
                    as (_, host, port):
                client = await ReachabilityClient.connect(host, port)
                try:
                    stats = await client.stats()
                    assert stats["max_pending_writes"] == 7
                finally:
                    await client.close()
        run(scenario())


class TestDeadlines:
    def test_expired_check_deadline_draws_deadline_exceeded(self):
        async def scenario():
            async with serving(_engine()) as (_, host, port):
                client = await ReachabilityClient.connect(host, port)
                try:
                    # A budget of 1 nanosecond is gone before the
                    # coalescer drain can possibly run.
                    response = await client.request(
                        "check", u="a", v="c", deadline_ms=1e-6)
                    assert response["error"]["code"] == "deadline-exceeded"
                    with pytest.raises(ServerError) as caught:
                        await client.check_many([("a", "b"), ("a", "c")],
                                                deadline_ms=1e-6)
                    assert caught.value.code == "deadline-exceeded"
                finally:
                    await client.close()
        run(scenario())

    def test_generous_deadline_answers_normally(self):
        async def scenario():
            async with serving(_engine()) as (_, host, port):
                client = await ReachabilityClient.connect(host, port)
                try:
                    assert await client.check(
                        "a", "c", deadline_ms=60000) is True
                    assert await client.check_many(
                        [("a", "b"), ("b", "a")],
                        deadline_ms=60000) == [True, False]
                finally:
                    await client.close()
        run(scenario())

    def test_expired_write_deadline_means_not_applied(self):
        async def scenario():
            async with serving(_engine()) as (_, host, port):
                client = await ReachabilityClient.connect(host, port)
                try:
                    response = await client.request(
                        "add-arc", u="c", v="x", deadline_ms=1e-6)
                    assert response["error"]["code"] == "deadline-exceeded"
                    assert await client.check("c", "x") is False
                    # Same write, sane budget: applied.
                    response = await client.request(
                        "add-arc", u="c", v="x", deadline_ms=60000)
                    assert response["ok"]
                    assert await client.check("c", "x") is True
                finally:
                    await client.close()
        run(scenario())

    def test_malformed_deadline_is_bad_request(self):
        async def scenario():
            async with serving(_engine()) as (_, host, port):
                client = await ReachabilityClient.connect(host, port)
                try:
                    for bad in (0, -5, "soon", True, [100]):
                        response = await client.request(
                            "ping", deadline_ms=bad)
                        assert response["error"]["code"] == "bad-request"
                    # Malformed deadlines never take an admission slot.
                    raw = await http_exchange(
                        host, port, b"GET /healthz HTTP/1.1\r\n\r\n")
                    body = raw.split(b"\r\n\r\n", 1)[1]
                    assert json.loads(body)["overload"]["inflight"] == 0
                finally:
                    await client.close()
        run(scenario())

    def test_http_query_honours_deadlines(self):
        async def scenario():
            async with serving(_engine()) as (_, host, port):
                payload = json.dumps({"op": "check-many",
                                      "pairs": [["a", "c"]],
                                      "deadline_ms": 1e-6}).encode()
                request = (b"POST /query HTTP/1.1\r\n"
                           b"Content-Length: %d\r\n\r\n" % len(payload)
                           ) + payload
                raw = await http_exchange(host, port, request)
                assert raw.startswith(b"HTTP/1.1 400")
                body = json.loads(raw.split(b"\r\n\r\n", 1)[1])
                assert body["error"]["code"] == "deadline-exceeded"
        run(scenario())


class TestSlowClients:
    def test_guarded_drain_aborts_past_grace(self, monkeypatch):
        """A reader that stops consuming: once the server's send buffer
        passes the transport's 64 KiB high-water mark, the drain gets
        the grace period and then the connection is aborted."""
        monkeypatch.setattr(app, "WRITE_GRACE", 0.2)
        hub = [f"n{index}" for index in range(2_000)]
        engine = HybridTCIndex.from_arcs([("root", node) for node in hub])

        async def scenario():
            async with serving(engine) as (server, host, port):
                # A small receive buffer, set before connecting, keeps
                # the kernel from absorbing what the reader never reads.
                sock = socket.socket()
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                sock.setblocking(False)
                await asyncio.get_running_loop().sock_connect(
                    sock, (host, port))
                reader, writer = await asyncio.open_connection(sock=sock)
                # Each answer lists ~2k successors (~16 KiB); 600 of them
                # outgrow the kernel socket buffers and the 64 KiB mark.
                frame = encode_frame({"op": "expand", "u": "root"})
                writer.write(frame * 600)
                await writer.drain()
                loop = asyncio.get_running_loop()
                deadline = loop.time() + 10.0
                try:
                    while (server._slow_aborts.value == 0
                           and loop.time() < deadline):
                        await asyncio.sleep(0.05)
                finally:
                    writer.transport.abort()
                assert server._slow_aborts.value == 1
                scrape = await http_exchange(
                    host, port, b"GET /metrics HTTP/1.1\r\n\r\n")
                assert b"tc_server_slow_client_aborts_total 1" in scrape
        run(scenario())

    def test_guarded_drain_is_plain_below_high_water(self):
        """A reading client never arms the grace timer: every response
        arrives and nothing is aborted."""
        async def scenario():
            async with serving(_engine()) as (server, host, port):
                client = await ReachabilityClient.connect(host, port)
                try:
                    for _ in range(50):
                        assert await client.check("a", "c") is True
                finally:
                    await client.close()
                assert server._slow_aborts.value == 0
        run(scenario())
