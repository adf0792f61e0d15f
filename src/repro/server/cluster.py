"""Preforked multi-core serving over shared RTCF snapshot generations.

One writer process (the parent) owns the mutable engine and the
single-writer protocol from :mod:`repro.server.state`; N read-worker
processes each run the ordinary :class:`ReachabilityServer` loop
against a zero-copy mmap of the current snapshot generation
(:mod:`repro.server.generations`).  The pieces:

* **Accept sharding.**  Every worker owns a ``SO_REUSEPORT`` listening
  socket on the same port, so the kernel load-balances connections with
  no userspace dispatcher.  On platforms without ``SO_REUSEPORT`` the
  parent binds and listens once and the workers inherit the socket
  through ``fork`` — same port, kernel accept queue as the balancer.
* **Publish-before-ack, across processes.**  A mutation reaches a
  worker, is forwarded over a unix socket to the writer, and the writer
  acks only after the covering generation file is on disk with
  ``CURRENT`` pointing at it (:class:`PublishingState`).  The worker
  then re-attaches until its own mmap covers the acked epoch before
  answering — so after an ack, every later read *on that connection*
  is served at or above the acked epoch, exactly PR 7's guarantee.
* **O(1) re-attach.**  Workers poll ``CURRENT`` between requests and
  swap in the new generation with one mmap; queries in flight keep the
  old mapping (POSIX keeps unlinked mapped files readable), so garbage
  collection of stale generations never blocks on readers.
* **Merged observability.**  Each worker tags every metric series with
  ``worker_id`` and exposes a JSON snapshot on a per-worker admin
  socket; the parent's ``/metrics`` scrapes them all and renders one
  Prometheus view, and ``/healthz`` reports epoch, generation, and
  per-worker liveness.

``repro serve --workers N --snapshot-dir DIR`` wires this up from the
CLI.  Frozen (read-only) engines are served the same way minus the
write path.  Engines using fractional postorder numbering cannot be
published as RTCF and draw a clear error at startup.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from repro.errors import ReproError
from repro.obs.export import render_prometheus_snapshots
from repro.obs.metrics import MetricsRegistry
from repro.server.app import ReachabilityServer
from repro.server.client import ReachabilityClient
from repro.server.coalesce import DEFAULT_MAX_BATCH
from repro.server.generations import GenerationStore
from repro.server.protocol import (DEFAULT_MAX_FRAME, ERROR_CODES,
                                   ProtocolError)
from repro.server.state import ServeState, Snapshot

__all__ = ["ClusterServer", "PublishingState", "WorkerState"]

#: Default for how long a worker may wait for an acked generation to
#: become visible in its own mmap before declaring the cluster wedged.
#: Tunable per instance (``WorkerState(ack_timeout=...)`` /
#: ``ClusterServer(ack_timeout=...)`` / ``repro serve --ack-timeout``).
DEFAULT_ACK_TIMEOUT = 30.0
#: Default wait for a forked worker to start accepting
#: (``ClusterServer(ready_timeout=...)`` / ``--ready-timeout``).
DEFAULT_READY_TIMEOUT = 30.0
#: Default wait for terminated workers to exit before SIGKILL
#: (``ClusterServer(join_timeout=...)`` / ``--join-timeout``).
DEFAULT_JOIN_TIMEOUT = 10.0

#: sun_path is 108 bytes on Linux (104 on BSDs); leave headroom for
#: the ``worker-NN.sock`` suffix.
_MAX_SOCKET_DIR = 70


def reuseport_available() -> bool:
    return hasattr(socket, "SO_REUSEPORT")


def _reuseport_socket(host: str, port: int, *, listen: bool) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind((host, port))
    if listen:
        sock.listen(256)
    return sock


# ----------------------------------------------------------------------
# writer side
# ----------------------------------------------------------------------
class PublishingState(ServeState):
    """ServeState that writes each published epoch to the generation
    store *before* acknowledging it — publish-before-ack extended from
    an attribute swap to an atomic rename other processes can see."""

    def __init__(self, engine, store: GenerationStore, **kwargs) -> None:
        self._store = store
        super().__init__(engine, **kwargs)
        self.generation: Optional[str] = None
        self._generation_seconds = self._metrics.histogram(
            "tc_cluster_generation_publish_seconds",
            help="wall time to write and point a generation file")

    def publish_initial(self) -> str:
        """Write generation 0 so workers have something to attach."""
        self.generation = self._store.publish(
            self.snapshot.engine, self.snapshot.epoch)
        return self.generation

    def _on_publish(self) -> None:
        started = time.perf_counter_ns()
        self.generation = self._store.publish(
            self.snapshot.engine, self.snapshot.epoch)
        self._generation_seconds.observe_ns(
            time.perf_counter_ns() - started)

    def stats(self) -> dict:
        payload = super().stats()
        payload["generation"] = self.generation
        return payload


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
class WorkerState:
    """A read-worker's ServeState-shaped view of the cluster.

    Queries answer from ``snapshot`` — an mmap of the current
    generation, refreshed by a background poll of ``CURRENT`` and
    force-refreshed after every forwarded write ack.  Mutations forward
    to the writer over its unix socket and ack only once the covering
    generation is locally visible.
    """

    def __init__(self, store: GenerationStore, *, worker_id: int = 0,
                 writer_path: Optional[str] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 poll_interval: float = 0.02,
                 max_frame: int = DEFAULT_MAX_FRAME,
                 ack_timeout: float = DEFAULT_ACK_TIMEOUT) -> None:
        self._store = store
        self.worker_id = worker_id
        self._writer_path = writer_path
        self._metrics = metrics if metrics is not None \
            else MetricsRegistry(enabled=False)
        self._poll_interval = poll_interval
        self._max_frame = max_frame
        self.ack_timeout = float(ack_timeout)
        self._client: Optional[ReachabilityClient] = None
        self._client_lock: Optional[asyncio.Lock] = None
        self._poll_task: Optional[asyncio.Task] = None
        self._closed = False
        epoch, name, engine = store.attach()
        self.snapshot = Snapshot(epoch, engine)
        self.generation = name
        self._reattaches = self._metrics.counter(
            "tc_worker_reattach_total",
            help="generation re-attaches (mmap swaps)")
        self._refresh_errors = self._metrics.counter(
            "tc_worker_refresh_errors_total",
            help="failed CURRENT polls or attaches")
        self._forwarded = self._metrics.counter(
            "tc_worker_forwarded_writes_total",
            help="mutations forwarded to the writer")
        self._epoch_gauge = self._metrics.gauge(
            "tc_server_epoch", help="currently served epoch")
        self._epoch_gauge.set(epoch)

    # -- introspection -------------------------------------------------
    @property
    def read_only(self) -> bool:
        return self._writer_path is None

    @property
    def epoch(self) -> int:
        return self.snapshot.epoch

    def stats(self) -> dict:
        snapshot = self.snapshot
        payload = {
            "epoch": snapshot.epoch,
            "generation": self.generation,
            "worker_id": self.worker_id,
            "read_only": self.read_only,
            "nodes": len(snapshot.engine),
            "pending_writes": 0,
        }
        engine_stats = snapshot.engine.stats()
        payload["snapshot"] = (engine_stats.as_dict()
                               if hasattr(engine_stats, "as_dict")
                               else engine_stats)
        return payload

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        if self._poll_task is None:
            self._poll_task = asyncio.get_running_loop().create_task(
                self._poll_loop())

    async def stop(self) -> None:
        self._closed = True
        if self._poll_task is not None:
            self._poll_task.cancel()
            try:
                await self._poll_task
            except asyncio.CancelledError:
                pass
            self._poll_task = None
        client, self._client = self._client, None
        if client is not None:
            await client.close()

    # -- generation tracking -------------------------------------------
    def refresh(self) -> bool:
        """Re-attach if ``CURRENT`` moved; True when the snapshot swapped.

        Synchronous on purpose: one pointer read plus one O(1) mmap,
        cheap enough to run between requests.  The displaced view is
        *not* closed — queries in flight still hold it; the garbage
        collector unmaps it when the last reference drops.
        """
        current = self._store.current()
        if current is None or current[1] == self.generation:
            return False
        epoch, name, engine = self._store.attach()
        self.snapshot = Snapshot(epoch, engine)
        self.generation = name
        self._reattaches.inc()
        self._epoch_gauge.set(epoch)
        return True

    async def _poll_loop(self) -> None:
        while not self._closed:
            await asyncio.sleep(self._poll_interval)
            try:
                self.refresh()
            except Exception:  # noqa: BLE001 - keep polling
                self._refresh_errors.inc()

    async def _await_epoch(self, epoch: int) -> None:
        """Spin-refresh until the local snapshot covers ``epoch``.

        The writer publishes the generation before acking, so normally
        the very first refresh lands it; the loop only absorbs fs-level
        races."""
        deadline = asyncio.get_running_loop().time() + self.ack_timeout
        while self.snapshot.epoch < epoch:
            try:
                self.refresh()
            except Exception:  # noqa: BLE001 - retry below
                self._refresh_errors.inc()
            if self.snapshot.epoch >= epoch:
                return
            if asyncio.get_running_loop().time() >= deadline:
                raise ProtocolError(
                    "server-error",
                    f"acked epoch {epoch} never became visible in "
                    f"worker {self.worker_id}")
            await asyncio.sleep(0.002)

    # -- forwarded writes ----------------------------------------------
    async def _writer_client(self) -> ReachabilityClient:
        if self._client_lock is None:
            self._client_lock = asyncio.Lock()
        async with self._client_lock:
            if self._client is None or self._client.closed:
                self._client = await ReachabilityClient.connect_unix(
                    self._writer_path, max_frame=self._max_frame)
            return self._client

    async def submit(self, op: str, args: Tuple[Any, ...], *,
                     deadline: Optional[float] = None) -> int:
        if self._writer_path is None:
            raise ProtocolError(
                "read-only",
                "this cluster serves a frozen snapshot and accepts no "
                "writes")
        if self._closed:
            raise ProtocolError("shutting-down", "server is shutting down")
        fields = _forward_fields(op, args)
        if deadline is not None:
            # Forward the *remaining* budget so the writer enforces the
            # same drop-dead instant; an already-expired budget is
            # refused here, before the write leaves this process.
            remaining_ms = (deadline - time.monotonic()) * 1000.0
            if remaining_ms <= 0:
                raise ProtocolError(
                    "deadline-exceeded",
                    "deadline_ms budget expired before the write was "
                    "forwarded; it was not applied")
            fields["deadline_ms"] = remaining_ms
        try:
            client = await self._writer_client()
            response = await client.request(op, **fields)
        except ProtocolError:
            raise
        except (ConnectionError, OSError) as error:
            raise ProtocolError(
                "server-error",
                f"writer unreachable: {error}") from error
        self._forwarded.inc()
        if not response.get("ok"):
            error = response.get("error", {})
            code = error.get("code", "server-error")
            if code not in ERROR_CODES:
                code = "server-error"
            raise ProtocolError(code, error.get("message", "write failed"))
        epoch = int(response.get("epoch", 0))
        await self._await_epoch(epoch)
        return epoch


def _forward_fields(op: str, args: Tuple[Any, ...]) -> dict:
    """Re-encode a validated mutation back into wire fields."""
    if op in ("add-arc", "remove-arc"):
        return {"u": args[0], "v": args[1]}
    if op == "add-node":
        return {"node": args[0], "parents": list(args[1])}
    if op == "remove-node":
        return {"node": args[0]}
    raise ReproError(f"unknown write op {op!r}")


# ----------------------------------------------------------------------
# worker process entry
# ----------------------------------------------------------------------
class _WorkerConfig:
    """Everything a forked worker needs, passed through ``fork`` (no
    pickling: the fork start method hands the child the live objects,
    which is what lets the no-reuseport fallback ship a socket)."""

    __slots__ = ("worker_id", "root", "keep", "writer_path", "admin_path",
                 "host", "port", "listen_sock", "coalesce", "max_batch",
                 "max_frame", "poll_interval", "ack_timeout",
                 "max_inflight", "shed_retry_after_ms", "write_high_water",
                 "write_grace")

    def __init__(self, **kwargs) -> None:
        for name in self.__slots__:
            setattr(self, name, kwargs[name])


def _worker_main(config: _WorkerConfig, ready) -> None:
    # The forking thread may have had a running event loop (supervisor
    # respawns fork from an executor thread precisely to avoid this,
    # but belt and braces): make sure this process starts loop-free.
    try:
        asyncio.events._set_running_loop(None)  # noqa: SLF001
    except Exception:  # pragma: no cover - private API drift
        pass
    asyncio.set_event_loop(None)
    try:
        asyncio.run(_worker_async(config, ready))
    except KeyboardInterrupt:  # pragma: no cover - SIGINT fallback path
        pass


async def _worker_async(config: _WorkerConfig, ready) -> None:
    registry = MetricsRegistry(
        default_labels={"worker_id": str(config.worker_id)})
    store = GenerationStore(config.root, keep=config.keep)
    state = WorkerState(store, worker_id=config.worker_id,
                        writer_path=config.writer_path,
                        metrics=registry,
                        poll_interval=config.poll_interval,
                        max_frame=config.max_frame,
                        ack_timeout=config.ack_timeout)
    server = ReachabilityServer(
        state=state, metrics=registry, coalesce=config.coalesce,
        max_batch=config.max_batch,
        max_frame=config.max_frame, allow_shutdown=False,
        max_inflight=config.max_inflight,
        shed_retry_after_ms=config.shed_retry_after_ms,
        write_high_water=config.write_high_water,
        write_grace=config.write_grace)
    if config.listen_sock is not None:
        await server.start(sock=config.listen_sock)
    else:
        await server.start(sock=_reuseport_socket(
            config.host, config.port, listen=True))
    if config.admin_path:
        try:
            os.unlink(config.admin_path)
        except FileNotFoundError:
            pass
        await server.start_unix(config.admin_path)
    server.install_signal_handlers()
    ready.set()
    await server.serve_until_shutdown()


# ----------------------------------------------------------------------
# the parent: writer + supervisor + merged admin plane
# ----------------------------------------------------------------------
class _WorkerRecord:
    __slots__ = ("config", "process", "restarts")

    def __init__(self, config: _WorkerConfig) -> None:
        self.config = config
        self.process = None
        self.restarts = 0


class _ParentServer(ReachabilityServer):
    """The writer's server, with cluster-wide ``/metrics``/``/healthz``.

    Listens on the writer unix socket (worker write forwarding) and the
    admin TCP port; a ``shutdown`` op or signal here stops the whole
    cluster."""

    def __init__(self, cluster: "ClusterServer", **kwargs) -> None:
        super().__init__(**kwargs)
        self._cluster = cluster

    async def _http_route(self, method: str, target: str,
                          body: bytes) -> Tuple[int, str, bytes]:
        path = urlsplit(target).path
        if path == "/metrics" and method in ("GET", "HEAD"):
            snapshots = await self._cluster.gather_metric_snapshots()
            return 200, "text/plain; version=0.0.4", \
                render_prometheus_snapshots(snapshots).encode("utf-8")
        if path == "/healthz":
            payload = (json.dumps(self._cluster.health(), sort_keys=True)
                       + "\n").encode("utf-8")
            return 200, "application/json", payload
        return await super()._http_route(method, target, body)


class ClusterServer:
    """The preforked worker pool: fork, serve, supervise, shut down.

    Synchronous :meth:`start` publishes generation 0, reserves the
    port, and forks the workers — call it *before* any event loop runs
    in this process (forking a live loop duplicates its internals).
    Then either :meth:`run` (blocking, installs signal handlers — the
    CLI path) or ``await`` :meth:`start_parent` /
    :meth:`serve_until_shutdown` on a loop you own (the test-harness
    path).
    """

    def __init__(self, engine, *, workers: int = 2,
                 snapshot_dir=None, host: str = "127.0.0.1",
                 port: int = 0, admin_port: int = 0,
                 coalesce: bool = True,
                 max_batch: int = DEFAULT_MAX_BATCH,
                 max_frame: int = DEFAULT_MAX_FRAME,
                 poll_interval: float = 0.02, keep_generations: int = 2,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer=None,
                 max_inflight: int = 0, max_pending_writes: int = 0,
                 shed_retry_after_ms: int = 50,
                 write_high_water: int = 0, write_grace: float = 10.0,
                 ack_timeout: float = DEFAULT_ACK_TIMEOUT,
                 ready_timeout: float = DEFAULT_READY_TIMEOUT,
                 join_timeout: float = DEFAULT_JOIN_TIMEOUT) -> None:
        if workers < 1:
            raise ReproError(f"need at least one worker, got {workers}")
        self.workers = workers
        self.host = host
        self.port = port
        self.admin_port = admin_port
        self.admin_host: Optional[str] = None
        self.coalesce = coalesce
        self.max_batch = max_batch
        self.max_frame = max_frame
        self.poll_interval = poll_interval
        self.max_inflight = int(max_inflight)
        self.max_pending_writes = int(max_pending_writes)
        self.shed_retry_after_ms = int(shed_retry_after_ms)
        self.write_high_water = int(write_high_water)
        self.write_grace = float(write_grace)
        self.ack_timeout = float(ack_timeout)
        self.ready_timeout = float(ready_timeout)
        self.join_timeout = float(join_timeout)
        self.metrics = metrics if metrics is not None else MetricsRegistry(
            default_labels={"worker_id": "writer"})
        self._owned_dir: Optional[tempfile.TemporaryDirectory] = None
        if snapshot_dir is None:
            self._owned_dir = tempfile.TemporaryDirectory(
                prefix="repro-cluster-")
            snapshot_dir = self._owned_dir.name
        self.store = GenerationStore(snapshot_dir, keep=keep_generations)
        self.state = PublishingState(engine, self.store,
                                     metrics=self.metrics, tracer=tracer,
                                     max_pending_writes=max_pending_writes)
        self._socket_dir = self._pick_socket_dir()
        self.writer_path = str(Path(self._socket_dir) / "writer.sock")
        self._listen_sock: Optional[socket.socket] = None
        self._reuseport = reuseport_available()
        self._workers: Dict[int, _WorkerRecord] = {}
        self._mp = None
        self.server: Optional[_ParentServer] = None
        self._supervisor_task: Optional[asyncio.Task] = None
        self._stopping = False
        self._scrape_failures = self.metrics.counter(
            "tc_cluster_scrape_failures_total",
            help="worker metric scrapes that failed")
        self._restart_counter = self.metrics.counter(
            "tc_cluster_worker_restarts_total",
            help="workers respawned after dying unexpectedly")

    def _pick_socket_dir(self) -> str:
        root = str(self.store.root)
        if len(root) <= _MAX_SOCKET_DIR:
            return root
        # sun_path would overflow: put control sockets in a short tmpdir.
        self._socket_tmp = tempfile.TemporaryDirectory(prefix="repro-ipc-")
        return self._socket_tmp.name

    def worker_admin_path(self, worker_id: int) -> str:
        return str(Path(self._socket_dir) / f"worker-{worker_id}.sock")

    # ------------------------------------------------------------------
    # pre-loop phase: publish gen-0, reserve the port, fork
    # ------------------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Publish generation 0 and fork the workers; returns the bound
        serving address.  Must run before this process starts a loop."""
        import multiprocessing
        self._mp = multiprocessing.get_context("fork")
        self.state.publish_initial()
        if self._reuseport:
            # Bound but NOT listening: reserves the port number without
            # joining the kernel's accept distribution, so every SYN
            # goes to a worker.
            self._listen_sock = _reuseport_socket(self.host, self.port,
                                                  listen=False)
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((self.host, self.port))
            sock.listen(256)
            self._listen_sock = sock
        self.host, self.port = self._listen_sock.getsockname()[:2]
        for worker_id in range(self.workers):
            self._workers[worker_id] = _WorkerRecord(
                self._worker_config(worker_id))
        for worker_id in range(self.workers):
            self._spawn_worker(worker_id)
        return self.host, self.port

    def _worker_config(self, worker_id: int) -> _WorkerConfig:
        return _WorkerConfig(
            worker_id=worker_id, root=str(self.store.root),
            keep=self.store.keep,
            writer_path=None if self.state.read_only else self.writer_path,
            admin_path=self.worker_admin_path(worker_id),
            host=self.host, port=self.port,
            listen_sock=None if self._reuseport else self._listen_sock,
            coalesce=self.coalesce,
            max_batch=self.max_batch, max_frame=self.max_frame,
            poll_interval=self.poll_interval, ack_timeout=self.ack_timeout,
            max_inflight=self.max_inflight,
            shed_retry_after_ms=self.shed_retry_after_ms,
            write_high_water=self.write_high_water,
            write_grace=self.write_grace)

    def _spawn_worker(self, worker_id: int) -> None:
        """Fork one worker and wait until it is accepting. Runs in the
        calling thread — keep it off threads with a live event loop."""
        record = self._workers[worker_id]
        ready = self._mp.Event()
        process = self._mp.Process(
            target=_worker_main, args=(record.config, ready),
            daemon=True, name=f"repro-worker-{worker_id}")
        process.start()
        if not ready.wait(self.ready_timeout):
            process.terminate()
            raise ReproError(
                f"worker {worker_id} failed to become ready within "
                f"{self.ready_timeout:.0f}s")
        record.process = process

    # ------------------------------------------------------------------
    # parent async phase: writer + admin + supervision
    # ------------------------------------------------------------------
    async def start_parent(self) -> Tuple[str, int]:
        """Start the writer/admin server; returns the admin address."""
        self.server = _ParentServer(
            self, state=self.state, metrics=self.metrics,
            coalesce=False, max_frame=self.max_frame,
            max_inflight=self.max_inflight,
            shed_retry_after_ms=self.shed_retry_after_ms,
            write_high_water=self.write_high_water,
            write_grace=self.write_grace)
        await self.server.start_unix(self.writer_path)
        admin_host, admin_port = await self.server.start(
            self.host, self.admin_port)
        self.admin_host, self.admin_port = admin_host, admin_port
        self._supervisor_task = asyncio.get_running_loop().create_task(
            self._supervise())
        return admin_host, admin_port

    def install_signal_handlers(self) -> bool:
        return self.server.install_signal_handlers()

    def request_shutdown(self) -> None:
        if self.server is not None:
            self.server.request_shutdown()

    async def serve_until_shutdown(self) -> None:
        await self.server._shutdown.wait()  # noqa: SLF001
        await self.stop_parent()

    async def _supervise(self) -> None:
        """Respawn workers that die while the cluster is live."""
        loop = asyncio.get_running_loop()
        while not self._stopping:
            await asyncio.sleep(0.2)
            for worker_id, record in self._workers.items():
                process = record.process
                if (process is None or process.is_alive()
                        or self._stopping):
                    continue
                record.restarts += 1
                self._restart_counter.inc()
                try:
                    # Fork from an executor thread: the child must not
                    # inherit "a loop is running in this thread".
                    await loop.run_in_executor(
                        None, self._spawn_worker, worker_id)
                except Exception:  # noqa: BLE001 - keep supervising
                    record.process = None

    # ------------------------------------------------------------------
    # cluster admin plane
    # ------------------------------------------------------------------
    async def gather_metric_snapshots(self) -> List[dict]:
        """The writer's snapshot plus one scraped from each worker."""
        snapshots = [self.metrics.snapshot()]
        for worker_id in sorted(self._workers):
            try:
                client = await asyncio.wait_for(
                    ReachabilityClient.connect_unix(
                        self.worker_admin_path(worker_id)), 2.0)
                try:
                    snapshots.append(await asyncio.wait_for(
                        client.call("metrics"), 5.0))
                finally:
                    await client.close()
            except Exception:  # noqa: BLE001 - scrape must not 500
                self._scrape_failures.inc()
        return snapshots

    def health(self) -> dict:
        workers = []
        all_alive = True
        for worker_id, record in sorted(self._workers.items()):
            process = record.process
            alive = bool(process is not None and process.is_alive())
            all_alive = all_alive and alive
            workers.append({"worker_id": worker_id, "alive": alive,
                            "pid": process.pid if process else None,
                            "restarts": record.restarts})
        return {
            "ok": all_alive,
            "role": "writer",
            "epoch": self.state.epoch,
            "generation": self.state.generation,
            "nodes": len(self.state.snapshot.engine),
            "read_only": self.state.read_only,
            "workers": workers,
            "reuseport": self._reuseport,
        }

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    async def stop_parent(self) -> None:
        """Drain and dismantle: workers first (they may still be
        forwarding writes), then the writer, then the sockets."""
        if self._stopping:
            return
        self._stopping = True
        if self._supervisor_task is not None:
            self._supervisor_task.cancel()
            try:
                await self._supervisor_task
            except asyncio.CancelledError:
                pass
            self._supervisor_task = None
        loop = asyncio.get_running_loop()
        for record in self._workers.values():
            if record.process is not None and record.process.is_alive():
                record.process.terminate()  # SIGTERM -> graceful drain
        deadline = loop.time() + self.join_timeout
        for record in self._workers.values():
            process = record.process
            if process is None:
                continue
            while process.is_alive() and loop.time() < deadline:
                await asyncio.sleep(0.02)
            if process.is_alive():  # pragma: no cover - wedged worker
                process.kill()
                await loop.run_in_executor(None, process.join, 1.0)
        if self.server is not None:
            await self.server.stop()
        if self._listen_sock is not None:
            self._listen_sock.close()
            self._listen_sock = None
        for path in ([self.writer_path]
                     + [self.worker_admin_path(i) for i in self._workers]):
            try:
                os.unlink(path)
            except OSError:
                pass
        if getattr(self, "_socket_tmp", None) is not None:
            self._socket_tmp.cleanup()
            self._socket_tmp = None
        if self._owned_dir is not None:
            self._owned_dir.cleanup()
            self._owned_dir = None

    # ------------------------------------------------------------------
    # blocking entry point (the CLI path)
    # ------------------------------------------------------------------
    def run(self) -> None:
        """Serve until a signal or ``shutdown`` op.  Call after
        :meth:`start`."""

        async def _serve() -> None:
            await self.start_parent()
            self.install_signal_handlers()
            await self.serve_until_shutdown()

        asyncio.run(_serve())
