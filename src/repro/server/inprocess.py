"""Run a server in a background thread; query it synchronously.

This is the bridge that lets *synchronous* harnesses — the differential
fuzzer, pytest helpers, the oracle comparison — treat a live server as
just another engine.  :class:`ServerThread` owns a private event loop in
a daemon thread running a :class:`~repro.server.app.ReachabilityServer`
plus one pipelined client; :class:`ServerBackedEngine` adapts its
``call`` into the engine query surface
(:func:`~repro.testing.oracle.compare_engine` only needs
``successors``/``predecessors``/``reachable``), so every answer the
comparison sees made a real round trip through framing, dispatch, and
the coalescer.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.server.app import ReachabilityServer
from repro.server.client import ReachabilityClient

__all__ = ["ClusterThread", "ServerBackedEngine", "ServerThread"]

#: Default bound on any cross-thread call into the server loop;
#: override per instance with ``call_timeout=``.
DEFAULT_CALL_TIMEOUT = 30.0


class ServerThread:
    """A live server plus one client, owned by a private loop thread.

    ``engine_factory`` is called *inside* the loop thread (asyncio
    primitives bind to the running loop on older Pythons) and must
    return the engine to serve.  Use as a context manager, or call
    :meth:`close` explicitly.
    """

    def __init__(self, engine_factory, *, coalesce: bool = True,
                 call_timeout: float = DEFAULT_CALL_TIMEOUT,
                 client_kwargs: Optional[dict] = None,
                 proxy_factory=None) -> None:
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._server: Optional[ReachabilityServer] = None
        self._client: Optional[ReachabilityClient] = None
        self._engine_factory = engine_factory
        self._coalesce = coalesce
        self.call_timeout = float(call_timeout)
        self._client_kwargs = dict(client_kwargs or {})
        #: Called inside the loop thread with the server's (host, port);
        #: must return an object exposing ``host``/``port`` to dial
        #: instead and an async ``close()`` — the chaos proxy plugs in
        #: here, so every client byte crosses it.
        self._proxy_factory = proxy_factory
        self.proxy = None
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="reachability-server")
        self._thread.start()
        self._ready.wait(self.call_timeout)
        if self._startup_error is not None:
            raise self._startup_error
        if self._server is None:
            raise ReproError("server thread failed to start")

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._startup())
        except BaseException as error:  # surface to the constructor
            self._startup_error = error
            self._ready.set()
            return
        self._ready.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self._loop.shutdown_asyncgens())
            self._loop.close()

    async def _startup(self) -> None:
        server = ReachabilityServer(self._engine_factory(),
                                    coalesce=self._coalesce)
        host, port = await server.start("127.0.0.1", 0)
        if self._proxy_factory is not None:
            self.proxy = await self._proxy_factory(host, port)
            host, port = self.proxy.host, self.proxy.port
        self._client = await ReachabilityClient.connect(
            host, port, **self._client_kwargs)
        self._server = server
        self.host, self.port = host, port

    # ------------------------------------------------------------------
    # sync bridge
    # ------------------------------------------------------------------
    def call(self, op: str, **fields: Any) -> Any:
        """One request through the shared client, from any thread."""
        client = self._client
        if client is None:
            raise ReproError("server thread is closed")
        future = asyncio.run_coroutine_threadsafe(
            client.call(op, **fields), self._loop)
        return future.result(self.call_timeout)

    def connect(self, **kwargs: Any) -> ReachabilityClient:
        """A fresh client on the server's loop (for multi-conn tests).

        Dials through the proxy when one is installed; ``kwargs``
        override the thread's default client settings."""
        merged = dict(self._client_kwargs)
        merged.update(kwargs)
        return asyncio.run_coroutine_threadsafe(
            ReachabilityClient.connect(self.host, self.port, **merged),
            self._loop).result(self.call_timeout)

    def run_coro(self, coro) -> Any:
        """Run an arbitrary coroutine on the server's loop."""
        return asyncio.run_coroutine_threadsafe(
            coro, self._loop).result(self.call_timeout)

    def close(self) -> None:
        if self._client is None and self._server is None:
            return
        client, self._client = self._client, None
        server, self._server = self._server, None

        proxy, self.proxy = self.proxy, None

        async def teardown() -> None:
            if client is not None:
                await client.close()
            if proxy is not None:
                await proxy.close()
            if server is not None:
                await server.stop()

        try:
            asyncio.run_coroutine_threadsafe(
                teardown(), self._loop).result(self.call_timeout)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(self.call_timeout)

    def __enter__(self) -> "ServerThread":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ClusterThread:
    """A live preforked cluster plus one client, for synchronous code.

    Same ``call``/``connect``/``run_coro``/``close`` surface as
    :class:`ServerThread`, so :class:`ServerBackedEngine` adapts a whole
    multi-process cluster into the engine interface — every comparison
    answer round-trips through a real socket into a forked worker
    reading an mmap'd generation file.

    The fork happens *in the constructor's thread* (before the private
    loop thread starts), because forking a process with a live event
    loop duplicates the loop's internals into the child.
    """

    def __init__(self, engine_factory, *, workers: int = 2,
                 coalesce: bool = True,
                 call_timeout: float = DEFAULT_CALL_TIMEOUT) -> None:
        from repro.server.cluster import ClusterServer
        self.call_timeout = float(call_timeout)
        self._cluster = ClusterServer(engine_factory(), port=0,
                                      workers=workers, coalesce=coalesce)
        self.host, self.port = self._cluster.start()
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._client: Optional[ReachabilityClient] = None
        self._closed = False
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="reachability-cluster")
        self._thread.start()
        self._ready.wait(self.call_timeout)
        if self._startup_error is not None:
            self.close()
            raise self._startup_error

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._startup())
        except BaseException as error:  # surface to the constructor
            self._startup_error = error
            self._ready.set()
            return
        self._ready.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self._loop.shutdown_asyncgens())
            self._loop.close()

    async def _startup(self) -> None:
        await self._cluster.start_parent()
        self._client = await ReachabilityClient.connect(self.host,
                                                        self.port)

    # -- sync bridge (same surface as ServerThread) --------------------
    def call(self, op: str, **fields: Any) -> Any:
        client = self._client
        if client is None:
            raise ReproError("cluster thread is closed")
        future = asyncio.run_coroutine_threadsafe(
            client.call(op, **fields), self._loop)
        return future.result(self.call_timeout)

    def connect(self) -> ReachabilityClient:
        """A fresh data-plane client (lands on a kernel-chosen worker)."""
        return asyncio.run_coroutine_threadsafe(
            ReachabilityClient.connect(self.host, self.port),
            self._loop).result(self.call_timeout)

    def connect_worker(self, worker_id: int) -> ReachabilityClient:
        """A client pinned to one specific worker's admin socket."""
        return asyncio.run_coroutine_threadsafe(
            ReachabilityClient.connect_unix(
                self._cluster.worker_admin_path(worker_id)),
            self._loop).result(self.call_timeout)

    def run_coro(self, coro) -> Any:
        return asyncio.run_coroutine_threadsafe(
            coro, self._loop).result(self.call_timeout)

    @property
    def cluster(self):
        return self._cluster

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        client, self._client = self._client, None

        async def teardown() -> None:
            if client is not None:
                await client.close()
            await self._cluster.stop_parent()

        try:
            if self._thread.is_alive():
                asyncio.run_coroutine_threadsafe(
                    teardown(), self._loop).result(self.call_timeout)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(self.call_timeout)

    def __enter__(self) -> "ClusterThread":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ServerBackedEngine:
    """The engine query surface, answered by a live server.

    Every method is one (or more) real protocol round trips.  Holds its
    :class:`ServerThread` alive; ``close`` tears the server down.
    """

    def __init__(self, thread: ServerThread) -> None:
        self._thread = thread

    # -- queries -------------------------------------------------------
    def reachable(self, source: Any, destination: Any) -> bool:
        return self._thread.call("check", u=source, v=destination)

    def reachable_many(
            self, pairs: Sequence[Tuple[Any, Any]]) -> List[bool]:
        pairs = list(pairs)
        if not pairs:
            return []
        return self._thread.call(
            "check-many", pairs=[[u, v] for u, v in pairs])

    def successors(self, source: Any, *, reflexive: bool = True):
        return set(self._thread.call("expand", u=source,
                                     reflexive=reflexive))

    def predecessors(self, destination: Any, *, reflexive: bool = True):
        return set(self._thread.call("list-reaching", v=destination,
                                     reflexive=reflexive))

    def any_reachable(self, sources: Iterable[Any],
                      destinations: Iterable[Any]) -> bool:
        return self._thread.call("semijoin", mode="any",
                                 sources=list(sources),
                                 destinations=list(destinations))

    def reachable_from_set(self, sources: Iterable[Any]):
        return set(self._thread.call("semijoin", mode="forward",
                                     sources=list(sources)))

    def reaching_set(self, destinations: Iterable[Any]):
        return set(self._thread.call("semijoin", mode="backward",
                                     destinations=list(destinations)))

    def capabilities(self) -> "EngineCapabilities":
        from repro.core.engine import EngineCapabilities
        return EngineCapabilities(
            kind="server", supports_updates=True, supports_batch=True,
            is_frozen_snapshot=False, durable=False)

    def stats(self) -> dict:
        return self._thread.call("stats")

    def __contains__(self, node: Any) -> bool:
        # Membership via a reflexive self-check: present nodes always
        # reach themselves; absent ones draw not-found.
        try:
            return bool(self._thread.call("check", u=node, v=node))
        except ReproError:
            return False

    def __len__(self) -> int:
        return int(self._thread.call("stats")["nodes"])

    def close(self) -> None:
        self._thread.close()
