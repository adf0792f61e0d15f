"""Loop helpers shared by the server battery.

There is no async test plugin in the toolchain, so every test is a
plain function that drives its own event loop through :func:`run`.
Servers bind port 0 on loopback; nothing here touches the network
beyond 127.0.0.1.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import time
from contextlib import asynccontextmanager
from pathlib import Path

import pytest

from repro.server.app import ReachabilityServer
from repro.server.client import ReachabilityClient
from repro.server.protocol import read_frame


REPO = Path(__file__).resolve().parents[2]


def run(coro):
    """Run one coroutine to completion on a fresh event loop."""
    return asyncio.run(coro)


@asynccontextmanager
async def serving(engine, **kwargs):
    """A started server on an ephemeral loopback port."""
    server = ReachabilityServer(engine, **kwargs)
    host, port = await server.start("127.0.0.1", 0)
    try:
        yield server, host, port
    finally:
        await server.stop()


@asynccontextmanager
async def connected(engine, **kwargs):
    """A started server plus one connected client."""
    async with serving(engine, **kwargs) as (server, host, port):
        client = await ReachabilityClient.connect(host, port)
        try:
            yield server, client
        finally:
            await client.close()


async def next_response(reader, *, timeout: float = 5.0):
    """One decoded response frame off a raw reader, with a deadline."""
    return await asyncio.wait_for(read_frame(reader), timeout)


async def http_exchange(host, port, request: bytes, *,
                        timeout: float = 5.0) -> bytes:
    """One HTTP request/response on a fresh connection."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(request)
    await writer.drain()
    try:
        return await asyncio.wait_for(reader.read(1 << 20), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


def spawn_serve(*args: str) -> subprocess.Popen:
    """``repro serve ARGS --port 0`` in a subprocess, stdout piped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", *args, "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env)


def await_serving_line(proc, *, timeout: float = 60.0):
    """Read stdout lines until the 'serving on' banner (or fail)."""
    deadline = time.monotonic() + timeout
    lines = []
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            rest = proc.stdout.read() or ""
            pytest.fail("server exited before serving: "
                        + "".join(lines) + rest)
        line = proc.stdout.readline()
        if not line:
            continue
        lines.append(line)
        if "serving on" in line:
            return lines
    proc.kill()
    pytest.fail("server never printed the serving banner: "
                + "".join(lines))
