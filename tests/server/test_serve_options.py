"""`repro serve` options that no other test or bench cell needs.

docs/server.md lists every serve option beside the test or bench cell
that needs it; these are the ones whose only consumer is this file.
"""

from __future__ import annotations

import asyncio
import re

from repro.cli import main
from repro.core.hybrid import HybridTCIndex
from repro.durability import DurableTCIndex
from repro.obs import QueryTracer
from repro.server.client import ReachabilityClient

from .harness import (await_serving_line, connected, run, serving,
                      spawn_serve)


def test_durable_serve_keeps_a_write_across_a_restart(tmp_path, capsys):
    """``--durable``: a write acked by the server is in the store when
    it is opened again after the server has exited."""
    edges = tmp_path / "edges.txt"
    edges.write_text("a b\nb c\n")
    store = str(tmp_path / "store.d")
    assert main(["build", str(edges), "--durable", store]) == 0
    capsys.readouterr()

    proc = spawn_serve("--durable", store)
    try:
        lines = await_serving_line(proc)
        host, port = re.search(r"on ([0-9.]+):(\d+)", lines[-1]).groups()

        async def drive() -> None:
            client = await ReachabilityClient.connect(host, int(port))
            try:
                assert await client.add_node("d", parents=["c"]) >= 1
                assert await client.check("a", "d") is True
                await client.shutdown()
            finally:
                await client.close()

        asyncio.run(drive())
        out, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, out

    reopened = DurableTCIndex.open(store, create=False)
    try:
        assert reopened.reachable("a", "d")
    finally:
        reopened.close()


def test_host_binds_the_named_address(tmp_path):
    """``--host``: the server listens on the address it is given (any
    127.0.0.0/8 address is loopback on Linux)."""
    edges = tmp_path / "edges.txt"
    edges.write_text("a b\nb c\n")
    proc = spawn_serve(str(edges), "--host", "127.0.0.2")
    try:
        lines = await_serving_line(proc)
        assert "serving on 127.0.0.2:" in lines[-1]
        port = int(re.search(r"127\.0\.0\.2:(\d+)", lines[-1]).group(1))

        async def drive() -> None:
            client = await ReachabilityClient.connect("127.0.0.2", port)
            try:
                assert await client.check("a", "c") is True
                await client.shutdown()
            finally:
                await client.close()

        asyncio.run(drive())
        out, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, out


def test_trace_records_a_span_tree_for_a_served_check():
    """``--trace``: a check answered over the wire, through the
    coalescer, leaves the snapshot engine's span in the server's
    tracer."""
    tracer = QueryTracer()

    async def scenario() -> None:
        engine = HybridTCIndex.from_arcs([("a", "b"), ("b", "c")])
        async with connected(engine, tracer=tracer) as (_, client):
            assert await client.check("a", "c") is True

    run(scenario())
    [root] = tracer.traces()
    assert root.name == "reachable"
    assert root.annotations["engine"] == "FrozenTCIndex"
    assert "hit" in root.annotations


def test_trace_keeps_each_connection_in_its_own_span_tree():
    """``--trace``: a write holds its ``server.add-node`` span open
    while it waits for its publish; requests served meanwhile on
    another connection must still be recorded as their own roots."""
    tracer = QueryTracer()

    async def scenario() -> None:
        engine = HybridTCIndex.from_arcs([("a", "b"), ("b", "c")])
        async with serving(engine, tracer=tracer) as (server, host, port):
            entered, release = asyncio.Event(), asyncio.Event()
            submit = server.state.submit

            async def held_submit(*args, **kwargs):
                entered.set()
                await release.wait()
                return await submit(*args, **kwargs)

            server.state.submit = held_submit
            writer = await ReachabilityClient.connect(host, port)
            reader = await ReachabilityClient.connect(host, port)
            try:
                pending = asyncio.ensure_future(
                    writer.add_node("d", parents=["c"]))
                await asyncio.wait_for(entered.wait(), 5)
                assert await reader.expand("a") == ["a", "b", "c"]
                assert await reader.expand("b") == ["b", "c"]
                release.set()
                assert await pending >= 1
            finally:
                await writer.close()
                await reader.close()

    run(scenario())
    roots = tracer.traces()
    assert [root.name for root in roots].count("server.expand") == 2
    [write] = [root for root in roots if root.name == "server.add-node"]
    assert not any(child.name == "server.expand" for child in write.children)


def test_trace_with_workers_is_a_usage_error(tmp_path, capsys):
    """``--trace --workers N``: cluster workers record no spans, so the
    combination is refused before anything is served."""
    edges = tmp_path / "edges.txt"
    edges.write_text("a b\nb c\n")
    assert main(["serve", str(edges), "--trace", "--workers", "2",
                 "--port", "0"]) == 2
    _, err = capsys.readouterr()
    assert "--trace records nothing with --workers" in err
