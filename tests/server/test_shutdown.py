"""Graceful shutdown: signals, connection draining, subprocess exits.

Two layers: in-process tests pin the drain semantics (idle connections
close immediately, in-flight pipelined work is answered before the
socket dies, SIGTERM on a live loop trips the shutdown event), and
subprocess tests drive the real ``repro serve`` CLI — single-process
and cluster — asserting a clean exit line and status 0 under SIGTERM.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import time

import pytest

from repro.core.hybrid import HybridTCIndex
from repro.server import app
from repro.server.app import ReachabilityServer
from repro.server.client import ReachabilityClient
from repro.server.inprocess import ServerThread
from repro.server.protocol import encode_frame

from .harness import (await_serving_line, next_response, run, serving,
                      spawn_serve)


def _engine():
    return HybridTCIndex.from_arcs([("a", "b"), ("b", "c")])


# ----------------------------------------------------------------------
# in-process drain semantics
# ----------------------------------------------------------------------

def test_stop_closes_idle_connections_without_waiting_for_grace(monkeypatch):
    monkeypatch.setattr(app, "DRAIN_GRACE", 30.0)

    async def scenario():
        server = ReachabilityServer(_engine())
        host, port = await server.start("127.0.0.1", 0)
        client = await ReachabilityClient.connect(host, port)
        assert await client.check("a", "c") is True
        loop = asyncio.get_running_loop()
        started = loop.time()
        await server.stop()  # the idle connection must not pin us
        assert loop.time() - started < 5.0, \
            "stop() waited the full grace period for an idle connection"
        await client.close()
    run(scenario())


def test_shutdown_answers_in_flight_pipelined_requests():
    """Frames already on the wire when shutdown is requested are
    answered (drained), not dropped."""
    async def scenario():
        async with serving(_engine()) as (server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            blob = b"".join(
                encode_frame({"id": i, "op": "check", "u": "a", "v": "b"})
                for i in range(20))
            writer.write(blob)
            await writer.drain()
            server.request_shutdown()
            responses = [await next_response(reader) for _ in range(20)]
            assert [r["id"] for r in responses] == list(range(20))
            assert all(r["ok"] and r["result"] is True for r in responses)
            writer.close()
    run(scenario())


def test_sigterm_trips_graceful_shutdown_in_process():
    async def scenario():
        server = ReachabilityServer(_engine())
        await server.start("127.0.0.1", 0)
        loop = asyncio.get_running_loop()
        if not server.install_signal_handlers():
            pytest.skip("signal handlers unavailable on this loop")
        try:
            waiter = asyncio.ensure_future(server.serve_until_shutdown())
            await asyncio.sleep(0)
            os.kill(os.getpid(), signal.SIGTERM)
            await asyncio.wait_for(waiter, 10.0)
        finally:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.remove_signal_handler(signum)
                except (RuntimeError, ValueError):
                    pass
        await server.stop()
    run(scenario())


def test_install_signal_handlers_reports_failure_off_main_thread():
    """Signal handlers only work on the main thread; the cluster workers
    rely on install returning False (not raising) everywhere else."""
    async def _install(server) -> bool:
        return server.install_signal_handlers()

    with ServerThread(_engine) as thread:
        assert thread.run_coro(_install(thread._server)) is False


# ----------------------------------------------------------------------
# real CLI processes under SIGTERM / SIGINT
# ----------------------------------------------------------------------

def _spawn_serve(tmp_path, *extra):
    edges = tmp_path / "edges.txt"
    if not edges.exists():
        edges.write_text("a b\nb c\n")
    return spawn_serve(str(edges), "--engine", "hybrid", *extra)


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
def test_single_process_serve_exits_cleanly_on_signal(tmp_path, signum):
    proc = _spawn_serve(tmp_path)
    try:
        await_serving_line(proc)
        proc.send_signal(signum)
        out, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, out
    assert "shut down cleanly" in out


def test_cluster_serve_exits_cleanly_on_sigterm_and_reaps_workers(tmp_path):
    snap = tmp_path / "snap"
    with socket.socket() as probe:  # a free port for --metrics-port
        probe.bind(("127.0.0.1", 0))
        admin_port = probe.getsockname()[1]
    proc = _spawn_serve(tmp_path, "--workers", "2",
                        "--snapshot-dir", str(snap),
                        "--metrics-port", str(admin_port))
    try:
        await_serving_line(proc)
        admin_line = proc.stdout.readline()
        assert f"cluster admin on 127.0.0.1:{admin_port} " in admin_line
        # Give the workers a beat to finish coming up, then terminate.
        time.sleep(0.3)
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, out
    assert "shut down cleanly" in out
    # The snapshot dir keeps only generation state — every unix socket
    # was unlinked on the way down.
    leftovers = [name for name in os.listdir(snap)
                 if name.endswith(".sock")]
    assert leftovers == []
    # And the published generation survived the shutdown (a restart
    # could re-attach to it).
    assert (snap / "CURRENT").exists()
