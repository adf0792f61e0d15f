"""The asyncio front end: connection handling and op dispatch.

One listening socket speaks two protocols.  Connections that open with
an HTTP method line get the minimal HTTP/1.1 mode (one request per
connection — made for ``curl`` and Prometheus scrapes of ``/metrics``);
everything else is the framed protocol from
:mod:`repro.server.protocol`.

The framed read loop is chunk-oriented: each socket read is split into
every complete frame it contains, and consecutive ``check`` requests
within a chunk form one *group* for the coalescer.  Check groups ride
the coalescer's callback path — the drain itself encodes and writes
their responses, with no per-request future or task wakeup — so the
read loop never blocks on a check and keeps feeding the batch.  A
per-connection sequencer (:class:`_OrderedWriter`) buffers whatever
completes early, so responses always hit the socket in request order
even when a drain callback and an inline op finish out of band.

Queries read ``state.snapshot`` once and answer from it — lock-free,
immutable, internally consistent.  Mutations await
:meth:`ServeState.submit`, which acknowledges only after the epoch swap
that makes them visible.  Malformed frames draw structured errors and
never kill the serving loop; only an unframeable stream (oversized
declared length) closes the connection, after answering.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.errors import CycleError, NodeNotFoundError, ReproError
from repro.obs.export import render_json, render_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.server import protocol
from repro.server.coalesce import DEFAULT_MAX_BATCH, EXPIRED, BatchCoalescer
from repro.server.protocol import (DEFAULT_MAX_FRAME, ERROR_CODES,
                                   CannedError, FrameParser,
                                   OverloadedError, ProtocolError,
                                   decode_payload, encode_response,
                                   error_response, looks_like_http,
                                   ok_response)
from repro.server.state import ServeState

__all__ = ["ReachabilityServer"]

_READ_CHUNK = 1 << 16


class _OrderedWriter:
    """Sequence responses that complete out of band back into order.

    Every response unit (a run of checks, or one inline op) takes a
    sequence number in request order via :meth:`allocate`; whenever the
    next expected unit completes, it and every contiguously buffered
    successor go out in one socket write.
    """

    __slots__ = ("writer", "next_seq", "emit_seq", "buffered",
                 "_flush_waiter")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.next_seq = 0
        self.emit_seq = 0
        self.buffered = {}
        self._flush_waiter = None

    def allocate(self) -> int:
        seq = self.next_seq
        self.next_seq += 1
        return seq

    def complete(self, seq: int, data: bytes) -> None:
        self.buffered[seq] = data
        if seq != self.emit_seq:
            return
        chunks = []
        while self.emit_seq in self.buffered:
            chunks.append(self.buffered.pop(self.emit_seq))
            self.emit_seq += 1
        if not self.writer.is_closing():
            self.writer.write(b"".join(chunks))
        if (self._flush_waiter is not None
                and not self._flush_waiter.done()
                and self.emit_seq == self.next_seq):
            self._flush_waiter.set_result(None)

    async def wait_flushed(self) -> None:
        """Wait until every allocated unit has completed and been sent."""
        while self.emit_seq < self.next_seq:
            self._flush_waiter = asyncio.get_running_loop().create_future()
            try:
                if self.emit_seq < self.next_seq:
                    await self._flush_waiter
            finally:
                self._flush_waiter = None


def _field(request: dict, name: str) -> Any:
    try:
        return request[name]
    except KeyError:
        raise ProtocolError("bad-request",
                            f"missing field {name!r}") from None


def _check_node(value: Any, name: str) -> Any:
    """Reject node values that cannot name a node (JSON arrays/objects).

    Validated at parse time so an unhashable value draws ``bad-request``
    here instead of a ``TypeError`` inside an engine lookup — the
    coalescer drain in particular answers whole batches of other
    connections' checks and must never see one.
    """
    try:
        hash(value)
    except TypeError:
        raise ProtocolError(
            "bad-request",
            f"{name!r} must be a JSON scalar node id, not an array or "
            f"object") from None
    return value


def _node_field(request: dict, name: str) -> Any:
    return _check_node(_field(request, name), name)


def _pair_list(request: dict, name: str = "pairs") -> List[Tuple[Any, Any]]:
    raw = _field(request, name)
    if not isinstance(raw, list):
        raise ProtocolError("bad-request", f"{name!r} must be a list")
    pairs = []
    for item in raw:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ProtocolError(
                "bad-request", f"{name!r} entries must be [u, v] pairs")
        pairs.append((_check_node(item[0], name), _check_node(item[1], name)))
    return pairs


def _node_list(request: dict, name: str) -> List[Any]:
    raw = _field(request, name)
    if not isinstance(raw, list):
        raise ProtocolError("bad-request", f"{name!r} must be a list")
    for value in raw:
        _check_node(value, name)
    return raw


def _error_code(error: Exception) -> str:
    if isinstance(error, ProtocolError):
        return error.code
    # Forwarded errors (a cluster worker relaying the writer's verdict)
    # carry their wire code; preserve it so the client sees the same
    # code it would have seen talking to the writer directly.
    forwarded = getattr(error, "code", None)
    if isinstance(forwarded, str) and forwarded in ERROR_CODES:
        return forwarded
    if isinstance(error, NodeNotFoundError):
        return "not-found"
    if isinstance(error, CycleError):
        return "cycle"
    if isinstance(error, ReproError):
        return "bad-request"
    return "server-error"


class ReachabilityServer:
    """Serve one engine over TCP (framed JSON) and minimal HTTP.

    ``engine`` is anything :class:`~repro.server.state.ServeState`
    accepts — typically ``open_index(path, engine="hybrid")`` for a
    writable service or an RTCF/frozen view for a read-only one.
    """

    def __init__(self, engine=None, *,
                 state=None, metrics: Optional[MetricsRegistry] = None,
                 tracer=None, coalesce: bool = True,
                 max_batch: int = DEFAULT_MAX_BATCH,
                 max_frame: int = DEFAULT_MAX_FRAME,
                 allow_shutdown: bool = True,
                 drain_grace: float = 5.0,
                 max_inflight: int = 0,
                 max_pending_writes: int = 0,
                 shed_retry_after_ms: int = 50,
                 write_high_water: int = 0,
                 write_grace: float = 10.0) -> None:
        if (engine is None) == (state is None):
            raise ReproError("pass exactly one of engine= or state=")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        # ``state=`` injects any ServeState-shaped object — the cluster's
        # WorkerState (mmap snapshot + forwarded writes) plugs in here.
        self.state = state if state is not None else ServeState(
            engine, metrics=self.metrics, tracer=tracer,
            max_pending_writes=max_pending_writes)
        self.coalescer = BatchCoalescer(
            lambda: self.state.snapshot, max_batch=max_batch,
            enabled=coalesce, metrics=self.metrics)
        self.max_frame = max_frame
        self.allow_shutdown = allow_shutdown
        self.drain_grace = drain_grace
        #: Admission cap on concurrently admitted requests; 0 disables.
        #: Requests beyond the budget are shed with ``overloaded`` before
        #: any engine work — the queue never grows without bound, so
        #: admitted requests keep a bounded latency under overload.
        self.max_inflight = int(max_inflight)
        #: Backoff hint carried by ``overloaded`` errors.
        self.shed_retry_after_ms = int(shed_retry_after_ms)
        #: Per-connection send-buffer high-water mark, bytes; 0 disables.
        #: Above it, writes to that connection must drain within
        #: ``write_grace`` seconds or the connection is aborted — one
        #: slow reader must not pin server memory or stall the loop.
        self.write_high_water = int(write_high_water)
        self.write_grace = float(write_grace)
        self._inflight = 0
        self._servers: List[asyncio.AbstractServer] = []
        #: open connection -> "idle" | "busy" | its _OrderedWriter.
        self._conns: dict = {}
        # Created in start(): pre-3.10 asyncio.Event binds its loop at
        # construction, and the server may be built before asyncio.run().
        self._shutdown: Optional[asyncio.Event] = None
        self._connections_open = self.metrics.gauge(
            "tc_server_connections_open", help="currently open connections")
        self._connections_total = self.metrics.counter(
            "tc_server_connections_total", help="accepted connections")
        self._inflight_gauge = self.metrics.gauge(
            "tc_server_inflight_requests",
            help="admitted requests not yet answered")
        self._shed = self.metrics.counter(
            "tc_server_overload_shed_total",
            help="requests shed at admission (in-flight budget exhausted)")
        self._shed_canned = CannedError(
            "overloaded",
            f"in-flight budget exhausted (cap {self.max_inflight}); "
            "request not applied - retry after the hint",
            retry_after_ms=self.shed_retry_after_ms)
        self._slow_aborts = self.metrics.counter(
            "tc_server_slow_client_aborts_total",
            help="connections aborted because their send buffer would "
                 "not drain within the write grace period")
        self._requests = {}
        self._errors = {}
        self._latency = {}
        self._started_at = time.time()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _ensure_started(self) -> None:
        if self._shutdown is None:
            self._shutdown = asyncio.Event()
        if not self._servers:
            self.state.start()

    async def start(self, host: str = "127.0.0.1", port: int = 0, *,
                    sock=None) -> Tuple[str, int]:
        """Bind (or adopt ``sock``), serve, return ``(host, port)``.

        ``sock=`` takes a pre-bound, listening socket — the cluster's
        reuseport shards and the inherited-fd fallback both enter here.
        May be called more than once; every listener serves the same
        state.
        """
        self._ensure_started()
        if sock is not None:
            server = await asyncio.start_server(
                self._handle_connection, sock=sock)
        else:
            server = await asyncio.start_server(
                self._handle_connection, host, port)
        self._servers.append(server)
        sockname = server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def start_unix(self, path: str) -> str:
        """Serve the same state on a unix domain socket as well."""
        self._ensure_started()
        server = await asyncio.start_unix_server(
            self._handle_connection, path)
        self._servers.append(server)
        return path

    def install_signal_handlers(self, loop=None) -> bool:
        """SIGTERM/SIGINT -> graceful shutdown.  True when installed.

        Fails soft (returns False) off the main thread or on loops
        without signal support — in-process test harnesses run servers
        on daemon threads where signal handlers are impossible.
        """
        import signal as _signal
        loop = loop if loop is not None else asyncio.get_running_loop()
        try:
            for signum in (_signal.SIGTERM, _signal.SIGINT):
                loop.add_signal_handler(signum, self.request_shutdown)
        except (NotImplementedError, RuntimeError, ValueError, OSError):
            return False
        return True

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` op (or :meth:`request_shutdown`)."""
        await self._shutdown.wait()
        await self.stop()

    def request_shutdown(self) -> None:
        if self._shutdown is not None:
            self._shutdown.set()

    @staticmethod
    def _conn_idle(entry) -> bool:
        if entry == "idle":
            return True
        if isinstance(entry, _OrderedWriter):
            return entry.emit_seq == entry.next_seq
        return False  # "busy": an HTTP exchange mid-flight

    async def stop(self) -> None:
        """Stop accepting, drain in-flight requests, then the writer.

        Idle connections are closed immediately; connections with
        responses still owed get up to ``drain_grace`` seconds to go
        idle before being force-closed.  Only after every connection is
        gone does the write queue drain and the state shut down.
        """
        servers, self._servers = self._servers, []
        for server in servers:
            server.close()
        for server in servers:
            await server.wait_closed()
        if self._conns:
            loop = asyncio.get_running_loop()
            deadline = loop.time() + self.drain_grace
            while self._conns:
                for writer, entry in list(self._conns.items()):
                    if self._conn_idle(entry) and not writer.is_closing():
                        writer.close()
                if loop.time() >= deadline:
                    for writer in list(self._conns):
                        if not writer.is_closing():
                            writer.close()
                    break
                await asyncio.sleep(0.005)
        await self.state.stop()

    async def run(self, host: str = "127.0.0.1", port: int = 0,
                  ready=None, *, install_signals: bool = False
                  ) -> Tuple[str, int]:
        """start + serve_until_shutdown, reporting the bound address."""
        bound = await self.start(host, port)
        if install_signals:
            self.install_signal_handlers()
        if ready is not None:
            ready(bound)
        await self.serve_until_shutdown()
        return bound

    # ------------------------------------------------------------------
    # per-op metrics
    # ------------------------------------------------------------------
    def _observe(self, op: str, started_ns: int) -> None:
        self._observe_ns(op, time.perf_counter_ns() - started_ns)

    def _observe_ns(self, op: str, elapsed_ns: int) -> None:
        pair = self._requests.get(op)
        if pair is None:
            labels = {"op": op}
            pair = (
                self.metrics.counter("tc_server_requests_total",
                                     help="requests served", labels=labels),
                self.metrics.histogram(
                    "tc_server_request_seconds",
                    help="request wall time, decode to encode",
                    labels=labels),
            )
            self._requests[op] = pair
        counter, histogram = pair
        counter.inc()
        histogram.observe_ns(elapsed_ns)

    def _count_error(self, code: str) -> None:
        counter = self._errors.get(code)
        if counter is None:
            counter = self.metrics.counter(
                "tc_server_errors_total", help="error responses",
                labels={"code": code})
            self._errors[code] = counter
        counter.inc()

    def _respond_error(self, request_id: Any, error: Exception) -> dict:
        code = _error_code(error)
        self._count_error(code)
        retry_after = getattr(error, "retry_after_ms", None)
        return error_response(request_id, code, str(error),
                              retry_after_ms=retry_after)

    # ------------------------------------------------------------------
    # deadlines and admission
    # ------------------------------------------------------------------
    @staticmethod
    def _parse_deadline(request: dict) -> Optional[float]:
        """``deadline_ms`` (a relative budget from server receipt) to an
        absolute ``time.monotonic()`` instant, or ``None`` when absent.

        Relative on the wire so no client/server clock agreement is
        needed; the budget starts counting when the server parses the
        request, which is the earliest instant it could act on it.
        """
        raw = request.get("deadline_ms")
        if raw is None:
            return None
        if isinstance(raw, bool) or not isinstance(raw, (int, float)) \
                or raw <= 0:
            raise ProtocolError(
                "bad-request",
                "'deadline_ms' must be a positive number of milliseconds")
        return time.monotonic() + raw / 1000.0

    def _admit(self) -> None:
        """Take one slot of the in-flight budget or shed the request."""
        if 0 < self.max_inflight <= self._inflight:
            self._shed.inc()
            raise OverloadedError(
                f"in-flight budget exhausted ({self._inflight} admitted, "
                f"cap {self.max_inflight}); retry after the hint",
                retry_after_ms=self.shed_retry_after_ms)
        self._inflight += 1
        self._inflight_gauge.set(self._inflight)

    def _release(self, count: int = 1) -> None:
        self._inflight -= count
        self._inflight_gauge.set(self._inflight)

    async def _guarded_drain(self, writer: asyncio.StreamWriter) -> bool:
        """Drain ``writer``; abort connections that will not.

        Returns False when the connection was aborted.  Only engages a
        timeout when a high-water mark is configured — otherwise this is
        the plain backpressure drain."""
        if self.write_high_water <= 0:
            await writer.drain()
            return True
        try:
            await asyncio.wait_for(writer.drain(), self.write_grace)
        except asyncio.TimeoutError:
            self._slow_aborts.inc()
            transport = writer.transport
            if transport is not None:
                transport.abort()
            return False
        return True

    # ------------------------------------------------------------------
    # framed connections
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._connections_total.inc()
        self._connections_open.inc()
        self._conns[writer] = "idle"
        try:
            first = await reader.read(_READ_CHUNK)
            if not first:
                return
            if looks_like_http(first[:4]):
                self._conns[writer] = "busy"
                await self._handle_http(first, reader, writer)
                return
            await self._framed_loop(first, reader, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._conns.pop(writer, None)
            self._connections_open.inc(-1)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _framed_loop(self, first: bytes, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        parser = FrameParser(self.max_frame)
        ordered = _OrderedWriter(writer)
        # Drain bookkeeping: idle means every allocated response has
        # been emitted, so shutdown may close this connection at once.
        self._conns[writer] = ordered
        if self.write_high_water > 0 and writer.transport is not None:
            # Lower the transport's pause threshold so a reader that
            # stops consuming trips ``drain()`` (and the grace timer)
            # after kilobytes, not the default 64 KiB per direction.
            writer.transport.set_write_buffer_limits(
                high=self.write_high_water)
        chunk = first
        while chunk:
            try:
                bodies = parser.feed(chunk)
            except ProtocolError as error:
                # The stream cannot be re-framed: answer, then close.
                self._count_error(error.code)
                ordered.complete(ordered.allocate(), encode_response(
                    error_response(None, error.code, str(error))))
                await ordered.wait_flushed()
                await self._guarded_drain(writer)
                return
            if bodies:
                await self._serve_bodies(bodies, ordered)
                # Backpressure only: check responses are written by the
                # coalescer drain, possibly after this point.
                if not await self._guarded_drain(writer):
                    return
            if self._shutdown.is_set():
                await ordered.wait_flushed()
                return
            chunk = await reader.read(_READ_CHUNK)
        # EOF: a partial frame left behind is a truncation — nothing to
        # answer (the peer is gone), but the serving loop survives.
        await ordered.wait_flushed()

    async def _serve_bodies(self, bodies: List[bytes],
                            ordered: _OrderedWriter) -> None:
        """Answer every frame of one chunk, preserving request order.

        Consecutive ``check`` frames become a single coalescer group
        whose responses the drain writes through ``ordered``; other ops
        are dispatched inline and sequenced the same way.
        """
        checks: List[Tuple[Any, Tuple[Any, Any], int,
                           Optional[float]]] = []
        shed: List[bytes] = []
        coalescer = self.coalescer

        def flush_sheds() -> None:
            # Consecutive shed responses share one sequence slot and one
            # write: under sustained overload most of a chunk is shed,
            # and per-response writes would make refusing the work as
            # expensive as doing it.
            if shed:
                ordered.complete(ordered.allocate(), b"".join(shed))
                shed.clear()

        def flush_checks() -> None:
            if not checks:
                return
            run = checks[:]
            checks.clear()
            seq = ordered.allocate()
            pairs = [pair for _, pair, _, _ in run]
            # A group may only be skipped wholesale when *every* check
            # in it is expired, so its drop-dead instant is the latest
            # member deadline — and no skip at all if any member has no
            # deadline.  Per-request expiry is re-checked at encode.
            deadlines = [item[3] for item in run]
            group_deadline = (max(deadlines)
                              if all(d is not None for d in deadlines)
                              else None)
            if not coalescer.enabled:
                answers, snapshot = coalescer.answer_now(pairs)
                self._complete_check_run(ordered, seq, run, answers,
                                         snapshot)
                return

            def deliver(answers, snapshot, run=run, seq=seq):
                self._complete_check_run(ordered, seq, run, answers,
                                         snapshot)

            coalescer.submit_group(pairs, deliver,
                                   deadline=group_deadline)

        for body in bodies:
            request_id = None
            admitted = False
            try:
                request = decode_payload(body)
                request_id = request.get("id")
                op = request.get("op")
                if 0 < self.max_inflight <= self._inflight:
                    # Over budget: refuse before validating anything
                    # further.  No exception, no per-request dict or
                    # ``json.dumps`` — the canned frame keeps the shed
                    # path far cheaper than the serve path, which is
                    # what makes shedding protective rather than just
                    # a slower way to answer.
                    self._shed.inc()
                    self._count_error("overloaded")
                    flush_checks()
                    shed.append(self._shed_canned.frame(request_id))
                    continue
                deadline = self._parse_deadline(request)
                self._admit()
                admitted = True
                if op == "check":
                    pair = (_node_field(request, "u"),
                            _node_field(request, "v"))
                    flush_sheds()
                    checks.append((request_id, pair,
                                   time.perf_counter_ns(), deadline))
                    continue
            except Exception as error:  # noqa: BLE001 - structured reply
                if admitted:
                    self._release()
                flush_checks()
                flush_sheds()
                ordered.complete(ordered.allocate(), encode_response(
                    self._respond_error(request_id, error)))
                continue
            flush_checks()
            flush_sheds()
            seq = ordered.allocate()
            try:
                response = await self._dispatch(op, request, request_id,
                                                deadline=deadline)
            except Exception as error:  # noqa: BLE001 - structured reply
                response = self._respond_error(request_id, error)
            finally:
                self._release()
            ordered.complete(seq, encode_response(response))
        flush_checks()
        flush_sheds()

    def _complete_check_run(
            self, ordered: _OrderedWriter, seq: int,
            run: List[Tuple[Any, Tuple[Any, Any], int, Optional[float]]],
            answers: List[Optional[bool]],
            snapshot) -> None:
        """Encode one check run and complete its sequence slot.

        The sequence slot MUST complete no matter what: an incomplete
        slot stalls :class:`_OrderedWriter` forever, hanging every later
        response on the connection (and ``wait_flushed`` at EOF).  So an
        encoding failure degrades to per-request ``server-error``
        responses instead of propagating — into the coalescer drain,
        where it would also poison other connections' groups.
        """
        try:
            data = self._encode_check_run(run, answers, snapshot)
        except Exception:  # noqa: BLE001 - the slot must complete
            self._count_error("server-error")
            out = []
            for request_id, _pair, _started, _deadline in run:
                try:
                    out.append(encode_response(error_response(
                        request_id, "server-error",
                        "failed to encode check response")))
                except Exception:  # noqa: BLE001 - unserialisable id
                    out.append(encode_response(error_response(
                        None, "server-error",
                        "failed to encode check response")))
            data = b"".join(out)
        finally:
            self._release(len(run))
        ordered.complete(seq, data)

    def _encode_check_run(
            self, run: List[Tuple[Any, Tuple[Any, Any], int,
                                  Optional[float]]],
            answers: List[Optional[bool]],
            snapshot) -> bytes:
        """Encode one check run's responses; runs inside the drain.

        ``snapshot`` is the snapshot the answers were computed from, so
        a ``None`` answer's missing node is attributed against the same
        epoch that judged it missing — membership against the *current*
        snapshot could disagree when a racing write lands in between.
        Each request's deadline is re-checked here — after the drain —
        so an answer the drain computed but could not deliver in budget
        still reports ``deadline-exceeded`` rather than arriving late
        disguised as fresh.
        """
        out = []
        engine = snapshot.engine
        epoch = snapshot.epoch
        now = time.perf_counter_ns()
        mono = time.monotonic()
        for (request_id, pair, started, deadline), answer \
                in zip(run, answers):
            if answer is EXPIRED or (deadline is not None
                                     and mono >= deadline):
                out.append(encode_response(self._respond_error(
                    request_id, ProtocolError(
                        "deadline-exceeded",
                        "deadline_ms budget expired before the check "
                        "was answered"))))
            elif answer is None:
                missing = pair[0] if pair[0] not in engine else pair[1]
                out.append(encode_response(self._respond_error(
                    request_id, NodeNotFoundError(missing))))
            else:
                out.append(encode_response(ok_response(
                    request_id, answer, epoch=epoch)))
            self._observe_ns("check", now - started)
        return b"".join(out)

    # ------------------------------------------------------------------
    # op dispatch
    # ------------------------------------------------------------------
    async def _dispatch(self, op: Any, request: dict,
                        request_id: Any, *,
                        deadline: Optional[float] = None) -> dict:
        started = time.perf_counter_ns()
        tracer = self.tracer
        if tracer is not None:
            with tracer.span(f"server.{op}", epoch=self.state.epoch):
                response = await self._dispatch_inner(
                    op, request, request_id, deadline)
        else:
            response = await self._dispatch_inner(op, request, request_id,
                                                  deadline)
        self._observe(str(op), started)
        return response

    async def _dispatch_inner(self, op: Any, request: dict,
                              request_id: Any,
                              deadline: Optional[float] = None) -> dict:
        if deadline is not None and time.monotonic() >= deadline:
            # Expired before any work: drop here rather than burn engine
            # time on an answer the client has already given up on.
            raise ProtocolError(
                "deadline-exceeded",
                "deadline_ms budget expired before the request was "
                "served")
        snapshot = self.state.snapshot
        engine = snapshot.engine
        epoch = snapshot.epoch

        if op == "ping":
            return ok_response(request_id, "pong", epoch=epoch)
        if op == "epoch":
            return ok_response(request_id, epoch, epoch=epoch)

        if op == "check-many":
            pairs = _pair_list(request)
            answers, batch_snapshot = await self.coalescer.check_group(
                pairs, deadline=deadline)
            if answers and answers[0] is EXPIRED:
                raise ProtocolError(
                    "deadline-exceeded",
                    "deadline_ms budget expired before the batch was "
                    "answered")
            if any(answer is None for answer in answers):
                # Attribute against the snapshot the batch was answered
                # from: the current snapshot may already contain a node
                # a racing write added after the drain.
                batch_engine = batch_snapshot.engine
                missing = next(
                    (node for pair, answer in zip(pairs, answers)
                     if answer is None for node in pair
                     if node not in batch_engine),
                    None)
                if missing is None:  # unreachable: same snapshot judged it
                    missing = next(pair for pair, answer
                                   in zip(pairs, answers)
                                   if answer is None)[0]
                raise NodeNotFoundError(missing)
            return ok_response(request_id, answers,
                               epoch=batch_snapshot.epoch)

        if op == "expand":
            node = _node_field(request, "u")
            reflexive = bool(request.get("reflexive", True))
            if node not in engine:
                raise NodeNotFoundError(node)
            return ok_response(
                request_id,
                sorted(engine.successors(node, reflexive=reflexive),
                       key=repr),
                epoch=epoch)
        if op == "list-reaching":
            node = _node_field(request, "v")
            reflexive = bool(request.get("reflexive", True))
            if node not in engine:
                raise NodeNotFoundError(node)
            return ok_response(
                request_id,
                sorted(engine.predecessors(node, reflexive=reflexive),
                       key=repr),
                epoch=epoch)

        if op == "semijoin":
            mode = request.get("mode", "any")
            if mode == "any":
                sources = _node_list(request, "sources")
                destinations = _node_list(request, "destinations")
                for node in sources + destinations:
                    if node not in engine:
                        raise NodeNotFoundError(node)
                return ok_response(
                    request_id,
                    bool(engine.any_reachable(sources, destinations)),
                    epoch=epoch)
            if mode == "forward":
                sources = _node_list(request, "sources")
                for node in sources:
                    if node not in engine:
                        raise NodeNotFoundError(node)
                return ok_response(
                    request_id,
                    sorted(engine.reachable_from_set(sources), key=repr),
                    epoch=epoch)
            if mode == "backward":
                destinations = _node_list(request, "destinations")
                for node in destinations:
                    if node not in engine:
                        raise NodeNotFoundError(node)
                return ok_response(
                    request_id,
                    sorted(engine.reaching_set(destinations), key=repr),
                    epoch=epoch)
            raise ProtocolError(
                "bad-request",
                f"unknown semijoin mode {mode!r}; choose any, forward, "
                f"or backward")

        if op in ("add-arc", "remove-arc"):
            args = (_node_field(request, "u"), _node_field(request, "v"))
            visible = await self.state.submit(op, args, deadline=deadline)
            return ok_response(request_id, True, epoch=visible)
        if op == "add-node":
            node = _node_field(request, "node")
            parents = request.get("parents", [])
            if not isinstance(parents, list):
                raise ProtocolError("bad-request", "'parents' must be a list")
            for parent in parents:
                _check_node(parent, "parents")
            visible = await self.state.submit(op, (node, parents),
                                              deadline=deadline)
            return ok_response(request_id, True, epoch=visible)
        if op == "remove-node":
            visible = await self.state.submit(
                op, (_node_field(request, "node"),), deadline=deadline)
            return ok_response(request_id, True, epoch=visible)

        if op == "stats":
            payload = self.state.stats()
            payload["coalescer"] = self.coalescer.stats()
            payload["uptime_seconds"] = round(
                time.time() - self._started_at, 3)
            return ok_response(request_id, payload, epoch=epoch)
        if op == "metrics":
            import json as _json
            return ok_response(request_id,
                               _json.loads(render_json(self.metrics)),
                               epoch=epoch)
        if op == "shutdown":
            if not self.allow_shutdown:
                raise ProtocolError("bad-request",
                                    "shutdown is disabled on this server")
            self.request_shutdown()
            return ok_response(request_id, "bye", epoch=epoch)

        raise ProtocolError("unknown-op", f"unknown op {op!r}")

    # ------------------------------------------------------------------
    # HTTP mode
    # ------------------------------------------------------------------
    async def _handle_http(self, first: bytes, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        raw = bytearray(first)
        while b"\r\n\r\n" not in raw:
            chunk = await reader.read(_READ_CHUNK)
            if not chunk:
                return
            raw.extend(chunk)
            if len(raw) > self.max_frame:
                writer.write(_http_response(431, "text/plain",
                                            b"headers too large\n"))
                await writer.drain()
                return
        head, _, rest = bytes(raw).partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            writer.write(_http_response(400, "text/plain",
                                        b"malformed request line\n"))
            await writer.drain()
            return
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            writer.write(_http_response(400, "text/plain",
                                        b"bad Content-Length\n"))
            await writer.drain()
            return
        if length < 0:
            writer.write(_http_response(400, "text/plain",
                                        b"bad Content-Length\n"))
            await writer.drain()
            return
        if length > self.max_frame:
            # Refuse before buffering: a multi-gigabyte declared body
            # must cost us the header bytes already read, not RAM.
            writer.write(_http_response(413, "text/plain",
                                        b"request body too large\n"))
            await writer.drain()
            return
        body = bytearray(rest)
        while len(body) < length:
            chunk = await reader.read(_READ_CHUNK)
            if not chunk:
                break
            body.extend(chunk)

        status, content_type, payload = await self._http_route(
            method, target, bytes(body[:length]))
        writer.write(_http_response(status, content_type, payload))
        await writer.drain()

    async def _http_route(self, method: str, target: str,
                          body: bytes) -> Tuple[int, str, bytes]:
        import json as _json
        started = time.perf_counter_ns()
        parts = urlsplit(target)
        path = parts.path
        query = {name: values[-1]
                 for name, values in parse_qs(parts.query).items()}

        def as_json(obj, status: int = 200) -> Tuple[int, str, bytes]:
            return status, "application/json", (
                _json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")

        if path == "/metrics" and method in ("GET", "HEAD"):
            self._observe("http.metrics", started)
            return 200, "text/plain; version=0.0.4", \
                render_prometheus(self.metrics).encode("utf-8")
        if path == "/healthz":
            self._observe("http.healthz", started)
            health = {"ok": True, "epoch": self.state.epoch,
                      "nodes": len(self.state.snapshot.engine),
                      "read_only": self.state.read_only,
                      "overload": {
                          "inflight": self._inflight,
                          "max_inflight": self.max_inflight,
                          "shed_total": self._shed.value,
                          "slow_client_aborts_total":
                              self._slow_aborts.value,
                      }}
            generation = getattr(self.state, "generation", None)
            if generation is not None:
                health["generation"] = generation
            worker_id = getattr(self.state, "worker_id", None)
            if worker_id is not None:
                health["worker_id"] = worker_id
            return as_json(health)
        if path == "/query" and method == "POST":
            try:
                request = decode_payload(body)
                response = await self._dispatch(
                    request.get("op"), request, request.get("id"),
                    deadline=self._parse_deadline(request))
            except Exception as error:  # noqa: BLE001 - structured reply
                response = self._respond_error(None, error)
            return as_json(response,
                           200 if response.get("ok") else 400)
        if path in ("/check", "/expand", "/reaching") and method == "GET":
            op = {"/check": "check-many", "/expand": "expand",
                  "/reaching": "list-reaching"}[path]
            request: dict = {"op": op}
            try:
                if path == "/check":
                    request["pairs"] = [[query["u"], query["v"]]]
                elif path == "/expand":
                    request["u"] = query["u"]
                else:
                    request["v"] = query["v"]
            except KeyError as missing:
                return as_json({"ok": False, "error": {
                    "code": "bad-request",
                    "message": f"missing query parameter {missing}"}}, 400)
            try:
                response = await self._dispatch(op, request, None)
            except Exception as error:  # noqa: BLE001 - structured reply
                response = self._respond_error(None, error)
            if path == "/check" and response.get("ok"):
                response["result"] = response["result"][0]
            return as_json(response, 200 if response.get("ok") else 400)
        self._count_error("unknown-op")
        return as_json({"ok": False, "error": {
            "code": "unknown-op", "message": f"no route {method} {path}"}},
            404)


_STATUS_TEXT = {200: "OK", 400: "Bad Request", 404: "Not Found",
                413: "Payload Too Large",
                431: "Request Header Fields Too Large"}


def _http_response(status: int, content_type: str, payload: bytes) -> bytes:
    reason = _STATUS_TEXT.get(status, "Error")
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n")
    return head.encode("latin-1") + payload
