"""Serving state: pinned snapshots, a single-writer task, epoch swaps.

Reads never lock.  Every read path grabs ``state.snapshot`` once — a
:class:`Snapshot` wrapping a *detached* :class:`~repro.core.frozen.FrozenTCIndex`
(or an mmap-backed RTCF view), both immutable — and answers entirely
from it.  Because a snapshot is never mutated after publication, any
number of connection tasks can share it with zero coordination, and a
request that started on epoch *e* keeps answering from epoch *e* even if
a swap lands mid-flight: answers are internally consistent, never torn.

Writes funnel through one queue drained by a single asyncio task.  The
writer drains every queued mutation, applies them in submission order to
the engine (the Section 4 algorithms keep the mutable truth exact in
microseconds), compiles one fresh frozen snapshot of the updated state
(one freeze, no closure recomputation), and then **publishes**:
a single attribute assignment swaps the new :class:`Snapshot` in for all
future reads.  Only after the swap are the writes acknowledged, so a
client that has seen a write ack at epoch *e* is guaranteed every later
read is served at epoch >= *e* (read-your-writes), and no read is ever
served more than one publish behind a mutation it raced.

Epochs count publishes, not mutations: a burst of writes drained
together becomes one epoch swap, which is what keeps refreeze cost
amortised under write bursts.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Iterable, List, Optional, Tuple

from repro.core.frozen import FrozenTCIndex
from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry

__all__ = ["ServeState", "Snapshot", "WriteOp"]

#: Mutation op names the writer task understands, mapped to the engine
#: method they invoke.
WRITE_METHODS = {
    "add-node": "add_node",
    "add-arc": "add_arc",
    "remove-arc": "remove_arc",
    "remove-node": "remove_node",
}


class Snapshot:
    """One published epoch: an immutable engine plus its epoch number."""

    __slots__ = ("epoch", "engine", "published_at")

    def __init__(self, epoch: int, engine) -> None:
        self.epoch = epoch
        self.engine = engine
        self.published_at = time.time()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Snapshot(epoch={self.epoch}, nodes={len(self.engine)})"


class WriteOp:
    """One queued mutation and the future its submitter awaits.

    ``deadline`` is a ``time.monotonic()`` instant: a write still queued
    when it passes is dropped *before* application — the submitter gets
    ``deadline-exceeded``, which therefore always means "not applied"
    and is safe to retry.
    """

    __slots__ = ("op", "args", "future", "deadline")

    def __init__(self, op: str, args: Tuple[Any, ...],
                 future: "asyncio.Future",
                 deadline: Optional[float] = None) -> None:
        self.op = op
        self.args = args
        self.future = future
        self.deadline = deadline


class ServeState:
    """The engine-facing half of the server: snapshots in, writes out.

    ``engine`` may be any :class:`~repro.core.engine.TCEngine`:

    * a :class:`~repro.core.hybrid.HybridTCIndex` — writes go through
      its write-through index, publishes fold the delta via
      :meth:`~repro.core.hybrid.HybridTCIndex.snapshot` and pin the
      fresh base;
    * an :class:`~repro.core.index.IntervalTCIndex` — writes apply to
      it directly, publishes freeze it into a detached snapshot;
    * any compiled snapshot — a :class:`FrozenTCIndex` (including
      mmap-backed RTCF views) or a
      :class:`~repro.core.chain_cover.ChainCoverIndex` — a read-only
      service: the snapshot is the engine itself, forever epoch 0, and
      every write draws a ``read-only`` error;
    * a :class:`~repro.durability.store.DurableTCIndex` — writes are
      journalled through the store facade; snapshots come from its inner
      engine exactly as above.
    """

    def __init__(self, engine, *, metrics: Optional[MetricsRegistry] = None,
                 tracer=None, max_pending_writes: int = 0) -> None:
        self._metrics = metrics if metrics is not None \
            else MetricsRegistry(enabled=False)
        self._tracer = tracer
        #: Admission cap on queued-but-unapplied writes; 0 disables.  A
        #: submit against a full queue is shed with ``overloaded`` —
        #: bounded memory under write storms, and the refusal happens
        #: *before* enqueue, so a shed write was never applied.
        self.max_pending_writes = int(max_pending_writes)
        self._write_target, self._compile = self._classify(engine)
        self.engine = engine
        # Created in start(): pre-3.10 asyncio primitives bind their
        # event loop at construction, and ServeState may be built before
        # asyncio.run() starts the loop that will serve it.
        self._queue: Optional["asyncio.Queue[WriteOp]"] = None
        self._writer_task: Optional[asyncio.Task] = None
        self._closed = False
        self.snapshot = Snapshot(0, self._traced(self._compile()))
        self._instruments()
        self._set_epoch_gauge()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _classify(self, engine):
        """Return (write_target, compile): where writes go, and how to
        build a detached immutable engine for the current exact state.

        Dispatch is on :meth:`TCEngine.capabilities`, so any
        conformant engine is servable without this module knowing its
        class: engines that do not support updates run as read-only
        snapshots of themselves; updatable engines are keyed by kind.
        """
        if not hasattr(engine, "capabilities"):
            raise ReproError(
                f"cannot serve a {type(engine).__name__}: expected a "
                "TCEngine (hybrid, interval, frozen, chain, or durable)")
        caps = engine.capabilities()
        if not caps.supports_updates:
            # Frozen buffers, chain-cover labels: the
            # engine *is* its own immutable snapshot.
            return None, lambda: engine
        inner = engine.engine if caps.durable else engine
        kind = inner.capabilities().kind
        if kind == "hybrid":
            # Fold the delta so reads stay flat-array fast; the fresh
            # pinned base *is* the publishable snapshot.
            return engine, inner.snapshot
        if kind == "interval":
            return engine, lambda: FrozenTCIndex.from_index(inner).detach()
        raise ReproError(
            f"cannot serve a {type(engine).__name__}: updatable engine "
            f"kind {kind!r} has no serve adapter")

    def _traced(self, engine):
        """``engine``, with the server's tracer (if any) attached: every
        lookup it answers, a coalesced check's included, leaves a span."""
        if self._tracer is not None:
            engine._tracer = self._tracer
        return engine

    def _instruments(self) -> None:
        registry = self._metrics
        self._swaps = registry.counter(
            "tc_server_epoch_swaps_total",
            help="snapshot publications (epoch advances)")
        self._publish_seconds = registry.histogram(
            "tc_server_publish_seconds",
            help="wall time to refreeze and publish a snapshot")
        self._write_batch = registry.histogram(
            "tc_server_write_batch_size",
            help="mutations folded into one epoch swap",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256))
        self._writes = registry.counter(
            "tc_server_writes_total", help="acknowledged mutations")
        self._write_errors = registry.counter(
            "tc_server_write_errors_total", help="rejected mutations")
        self._epoch_gauge = registry.gauge(
            "tc_server_epoch", help="currently served epoch")
        self._writes_shed = registry.counter(
            "tc_server_writes_shed_total",
            help="writes refused at admission because the write queue "
                 "was at max_pending_writes")
        self._writes_expired = registry.counter(
            "tc_server_writes_expired_total",
            help="queued writes dropped unapplied because their "
                 "deadline passed before the writer reached them")

    def _set_epoch_gauge(self) -> None:
        self._epoch_gauge.set(self.snapshot.epoch)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def read_only(self) -> bool:
        return self._write_target is None

    @property
    def epoch(self) -> int:
        return self.snapshot.epoch

    def stats(self) -> dict:
        snapshot = self.snapshot
        payload = {
            "epoch": snapshot.epoch,
            "read_only": self.read_only,
            "nodes": len(snapshot.engine),
            "pending_writes": self._queue.qsize()
            if self._queue is not None else 0,
            "max_pending_writes": self.max_pending_writes,
        }
        engine_stats = snapshot.engine.stats()
        payload["snapshot"] = (engine_stats.as_dict()
                               if hasattr(engine_stats, "as_dict")
                               else engine_stats)
        return payload

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the single-writer task (no-op for read-only servers)."""
        if self._write_target is not None and self._writer_task is None:
            self._queue = asyncio.Queue()
            self._writer_task = asyncio.get_running_loop().create_task(
                self._writer_loop())

    async def stop(self) -> None:
        """Drain and stop the writer; pending submissions are refused."""
        self._closed = True
        if self._writer_task is not None:
            # A sentinel wakes the writer so it can observe _closed.
            await self._queue.put(None)
            await self._writer_task
            self._writer_task = None

    # ------------------------------------------------------------------
    # the single-writer protocol
    # ------------------------------------------------------------------
    async def submit(self, op: str, args: Tuple[Any, ...], *,
                     deadline: Optional[float] = None) -> int:
        """Queue one mutation; resolves to the epoch where it is visible.

        Raises the underlying engine error (unknown node, cycle, …) when
        the mutation is rejected; raises :class:`ProtocolError` on a
        read-only, shutting-down, or write-queue-full server, and
        ``deadline-exceeded`` when ``deadline`` (a ``time.monotonic()``
        instant) passes before the writer applies the op.  Every one of
        those refusals happens *before* application — the write was not
        applied and is safe to retry.
        """
        from repro.server.protocol import OverloadedError, ProtocolError
        if self._write_target is None:
            raise ProtocolError(
                "read-only",
                "this server serves a frozen snapshot and accepts no "
                "writes")
        if self._closed:
            raise ProtocolError("shutting-down", "server is shutting down")
        if op not in WRITE_METHODS:
            raise ReproError(f"unknown write op {op!r}")
        if self._queue is None:
            raise ReproError("writer task not started; call start() first")
        if deadline is not None and time.monotonic() >= deadline:
            raise ProtocolError(
                "deadline-exceeded",
                "deadline expired before the write was queued; "
                "it was not applied")
        if 0 < self.max_pending_writes <= self._queue.qsize():
            self._writes_shed.inc()
            raise OverloadedError(
                f"write queue is full ({self._queue.qsize()} pending, "
                f"cap {self.max_pending_writes}); the write was not "
                f"applied")
        future = asyncio.get_running_loop().create_future()
        await self._queue.put(WriteOp(op, args, future, deadline))
        return await future

    async def _writer_loop(self) -> None:
        queue = self._queue
        while True:
            first = await queue.get()
            if first is None:
                if self._closed:
                    return
                continue
            batch: List[WriteOp] = [first]
            while not queue.empty():
                item = queue.get_nowait()
                if item is None:
                    if self._closed:
                        self._apply_and_publish(batch)
                        return
                    continue
                batch.append(item)
            self._apply_and_publish(batch)
            if self._closed and queue.empty():
                return

    def _apply_and_publish(self, batch: List[WriteOp]) -> None:
        """Apply one drained batch, swap the epoch, then acknowledge.

        Synchronous on purpose: no ``await`` between the first mutation
        and the publish, so no read coroutine can observe a half-applied
        batch through the *mutable* engine — they only ever read the
        snapshot, and the snapshot swap is one attribute store.
        """
        from repro.server.protocol import ProtocolError
        target = self._write_target
        applied: List[WriteOp] = []
        now = time.monotonic()
        for write in batch:
            if write.deadline is not None and now >= write.deadline:
                # Still unapplied and already worthless: refusing here
                # keeps the deadline-exceeded = not-applied guarantee
                # while sparing the refreeze a mutation nobody wants.
                self._writes_expired.inc()
                if not write.future.cancelled():
                    write.future.set_exception(ProtocolError(
                        "deadline-exceeded",
                        "deadline expired while the write was queued; "
                        "it was not applied"))
                continue
            try:
                getattr(target, WRITE_METHODS[write.op])(*write.args)
            except Exception as error:  # per-op failure, batch continues
                self._write_errors.inc()
                if not write.future.cancelled():
                    write.future.set_exception(error)
            else:
                applied.append(write)
        if applied:
            started = time.perf_counter_ns()
            engine = self._traced(self._compile())
            self.snapshot = Snapshot(self.snapshot.epoch + 1, engine)
            self._publish_seconds.observe_ns(
                time.perf_counter_ns() - started)
            self._swaps.inc()
            self._writes.inc(len(applied))
            self._write_batch.observe(len(applied))
            self._set_epoch_gauge()
            try:
                self._on_publish()
            except Exception as error:
                # The snapshot swapped but the post-publish step (e.g. a
                # cluster generation write) failed: acking now would
                # promise other processes a generation they cannot see.
                # Fail the batch and let the error propagate — a writer
                # that cannot publish must not pretend it can.
                for write in applied:
                    if not write.future.cancelled():
                        write.future.set_exception(error)
                raise
        epoch = self.snapshot.epoch
        for write in applied:
            if not write.future.cancelled():
                write.future.set_result(epoch)

    def _on_publish(self) -> None:
        """Hook: runs after each snapshot swap, *before* acks.

        The cluster's :class:`~repro.server.cluster.PublishingState`
        overrides this to write the new generation file and move the
        ``CURRENT`` pointer — publish-before-ack across processes."""
