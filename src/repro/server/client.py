"""Client helper for the framed protocol.

:class:`ReachabilityClient` holds one connection, pipelines requests,
and correlates responses by ``id`` with a background reader task — so
many coroutines can share a client, and pipelined calls overlap on the
wire (which is what lets the server coalesce them).

Resilience is opt-in and layered:

* ``call_timeout`` bounds every round trip (:class:`CallTimeoutError`);
  ``connect_timeout`` bounds dials.
* ``retry=RetryPolicy(...)`` adds exponential backoff with jitter.
  **Reads retry freely** — they are idempotent.  **Writes retry only
  when provably not applied**: a structured refusal whose code is in
  :data:`~repro.server.protocol.NOT_APPLIED_CODES` (``overloaded``,
  ``deadline-exceeded``, ``shutting-down``, ``read-only``) or a failure
  *before* the request hit the wire.  A write that was sent and then
  lost its connection (or timed out) is **ambiguous** — the server may
  have applied it — and surfaces :class:`AmbiguousWriteError` instead
  of silently double-applying.
* ``reconnect=True`` (default, effective when the client was built via
  :meth:`connect`/:meth:`connect_unix`) re-dials a dead connection on
  the next attempt.  An explicit :meth:`close` is final: no reconnect.
* ``overloaded`` responses carry the server's ``retry_after_ms`` hint;
  the backoff honours it as a floor so shed clients do not stampede.

Usage::

    async with await ReachabilityClient.connect(
            host, port, call_timeout=1.0,
            retry=RetryPolicy(attempts=4)) as client:
        assert await client.check("a", "d")
        answers = await client.check_many([("a", "d"), ("b", "c")])
"""

from __future__ import annotations

import ast
import asyncio
import itertools
import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import CycleError, NodeNotFoundError, ReproError
from repro.server.protocol import (DEFAULT_MAX_FRAME, NOT_APPLIED_CODES,
                                   ProtocolError, encode_frame, read_frame)

__all__ = ["AmbiguousWriteError", "CallTimeoutError", "ReachabilityClient",
           "RetryPolicy", "ServerError"]

#: Ops that mutate the graph — the ones whose retries must be classified.
_WRITE_OPS = frozenset({"add-node", "add-arc", "remove-arc", "remove-node"})
#: Ops never retried regardless of policy.
_NO_RETRY_OPS = frozenset({"shutdown"})

#: Exception types that mean "the network (or a timeout) ate it", as
#: opposed to a structural misuse of the client.
_TRANSIENT_ERRORS = (OSError, asyncio.TimeoutError, ProtocolError)


class ServerError(ReproError):
    """A structured error response from the server."""

    def __init__(self, code: str, message: str, *,
                 retry_after_ms: Optional[int] = None) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.server_message = message
        #: Backoff hint from an ``overloaded`` response, else ``None``.
        self.retry_after_ms = retry_after_ms


class CallTimeoutError(ReproError):
    """A round trip exceeded its per-call timeout.

    For reads this is retryable; for writes the request may have been
    applied after the timer fired, so the retry layer treats it as
    ambiguous."""

    def __init__(self, op: str, timeout: float) -> None:
        super().__init__(
            f"no response to {op!r} within {timeout:.3f}s")
        self.op = op
        self.timeout = timeout


class AmbiguousWriteError(ReproError):
    """A write was sent but its fate is unknown.

    The connection failed (or the call timed out) after the request hit
    the wire and before a response arrived: the server may or may not
    have applied the mutation.  Blindly retrying could double-apply, so
    the client refuses to — reconcile first (re-read the state, or use
    an idempotent mutation) and retry deliberately."""

    def __init__(self, op: str, cause: Exception) -> None:
        super().__init__(
            f"write {op!r} outcome unknown "
            f"({type(cause).__name__}: {cause}); the server may have "
            f"applied it — reconcile before retrying")
        self.op = op
        self.cause = cause


class RetryPolicy:
    """Exponential backoff with jitter, deterministic under a seeded RNG.

    ``attempts`` is the total number of tries (1 = no retries).  The
    delay before retry *k* (0-based) is ``base * multiplier**k`` capped
    at ``max_delay``, then jittered down into
    ``[(1 - jitter) * d, d]`` — the spread de-synchronises a thundering
    herd while a seeded ``rng`` keeps tests exact."""

    __slots__ = ("attempts", "base_delay", "max_delay", "multiplier",
                 "jitter", "_rng")

    def __init__(self, attempts: int = 3, *, base_delay: float = 0.05,
                 max_delay: float = 2.0, multiplier: float = 2.0,
                 jitter: float = 0.5,
                 rng: Optional[random.Random] = None) -> None:
        if attempts < 1:
            raise ReproError(f"attempts must be >= 1, got {attempts}")
        if not 0.0 <= jitter <= 1.0:
            raise ReproError(f"jitter must be in [0, 1], got {jitter}")
        self.attempts = attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.multiplier = multiplier
        self.jitter = jitter
        self._rng = rng if rng is not None else random.Random()

    def delay(self, attempt: int) -> float:
        """Seconds to sleep before retry number ``attempt`` (0-based)."""
        raw = min(self.max_delay,
                  self.base_delay * self.multiplier ** attempt)
        if self.jitter <= 0.0:
            return raw
        return raw * (1.0 - self.jitter * self._rng.random())


#: Error codes re-raised as their local exception type, so code written
#: against an in-process engine ports to the client unchanged.
_CODE_EXCEPTIONS = {
    "not-found": lambda msg: NodeNotFoundError(_node_from(msg)),
    "cycle": lambda msg: CycleError(msg),
}


def _node_from(message: str) -> Any:
    """The node of a not-found message, or the whole message.

    The server sends ``str(NodeNotFoundError(node))``, which is the
    repr of ``node <repr> is not in the graph`` (a ``KeyError`` quotes
    its message).  Both reprs are read back as literals, so int and
    float ids (JSON carries both) survive as well as strings.
    """
    prefix, suffix = "node ", " is not in the graph"
    try:
        text = ast.literal_eval(message)
        if (isinstance(text, str) and text.startswith(prefix)
                and text.endswith(suffix)):
            return ast.literal_eval(text[len(prefix):-len(suffix)])
    except (ValueError, TypeError, SyntaxError, MemoryError, RecursionError):
        pass
    return message


class ReachabilityClient:
    """One pipelined connection to a :class:`ReachabilityServer`."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, *,
                 max_frame: int = DEFAULT_MAX_FRAME,
                 call_timeout: Optional[float] = None,
                 connect_timeout: float = 5.0,
                 close_timeout: float = 5.0,
                 retry: Optional[RetryPolicy] = None,
                 reconnect: bool = True,
                 connect_factory=None) -> None:
        self._reader = reader
        self._writer = writer
        self._max_frame = max_frame
        self.call_timeout = call_timeout
        self.connect_timeout = connect_timeout
        self.close_timeout = close_timeout
        self.retry = retry
        self.reconnect = reconnect
        #: Zero-arg coroutine function dialling a fresh (reader, writer);
        #: installed by :meth:`connect`/:meth:`connect_unix` so the
        #: client knows how to get back to its server.
        self._connect_factory = connect_factory
        self._ids = itertools.count(1)
        self._waiting: Dict[int, asyncio.Future] = {}
        self._closed = False
        self._finished = False  # explicit close(): reconnect is over
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop(reader, self._waiting))

    @classmethod
    async def connect(cls, host: str, port: int, *,
                      max_frame: int = DEFAULT_MAX_FRAME,
                      connect_timeout: float = 5.0,
                      **kwargs: Any) -> "ReachabilityClient":
        def factory():
            return asyncio.open_connection(host, port)

        reader, writer = await asyncio.wait_for(factory(), connect_timeout)
        return cls(reader, writer, max_frame=max_frame,
                   connect_timeout=connect_timeout,
                   connect_factory=factory, **kwargs)

    @classmethod
    async def connect_unix(cls, path: str, *,
                           max_frame: int = DEFAULT_MAX_FRAME,
                           connect_timeout: float = 5.0,
                           **kwargs: Any) -> "ReachabilityClient":
        """Connect over a unix domain socket (cluster control plane)."""
        def factory():
            return asyncio.open_unix_connection(path)

        reader, writer = await asyncio.wait_for(factory(), connect_timeout)
        return cls(reader, writer, max_frame=max_frame,
                   connect_timeout=connect_timeout,
                   connect_factory=factory, **kwargs)

    @property
    def closed(self) -> bool:
        return self._closed

    @staticmethod
    def write_retry_safe(error: Exception) -> bool:
        """Whether a failed write is provably un-applied.

        True for structured refusals whose code is in
        :data:`~repro.server.protocol.NOT_APPLIED_CODES`; False for
        anything ambiguous (:class:`AmbiguousWriteError`, connection
        loss after send) or definitive (``cycle``, ``not-found``)."""
        code = getattr(error, "code", None)
        return code in NOT_APPLIED_CODES

    async def __aenter__(self) -> "ReachabilityClient":
        return self

    async def __aexit__(self, *_exc_info: Any) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    async def _read_loop(self, reader: asyncio.StreamReader,
                         waiting: Dict[int, asyncio.Future]) -> None:
        # Bound to ONE connection's reader and waiting-map: after a
        # reconnect this stale loop may still be finishing, and it must
        # not mark the replacement connection closed or fail its calls.
        error: Optional[Exception] = None
        try:
            while True:
                response = await read_frame(reader,
                                            max_frame=self._max_frame)
                if response is None:
                    break
                future = waiting.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (ProtocolError, ConnectionResetError, OSError) as exc:
            error = exc
        finally:
            if reader is self._reader:
                self._closed = True
            failure = error if error is not None else \
                ConnectionResetError("server closed the connection")
            for future in waiting.values():
                if not future.done():
                    future.set_exception(failure)
            waiting.clear()

    async def _ensure_connected(self) -> None:
        """Reconnect a dead connection, when allowed; else raise."""
        if not self._closed:
            return
        if (self._finished or not self.reconnect
                or self._connect_factory is None):
            raise ReproError("client connection is closed")
        old_task = self._reader_task
        old_task.cancel()
        try:
            await old_task
        except asyncio.CancelledError:
            pass
        try:
            self._writer.close()
        except Exception:  # noqa: BLE001 - the transport is already dead
            pass
        reader, writer = await asyncio.wait_for(
            self._connect_factory(), self.connect_timeout)
        self._reader = reader
        self._writer = writer
        self._waiting = {}
        self._closed = False
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop(reader, self._waiting))

    async def request(self, op: str, *, timeout: Optional[float] = None,
                      **fields: Any) -> dict:
        """Send one request; await its raw response object.

        The single-attempt primitive: no retries, no reconnect.
        ``timeout`` overrides the client's ``call_timeout`` for this
        call; on expiry the pending slot is abandoned (a late response
        with that id is dropped by the read loop) and
        :class:`CallTimeoutError` raises.
        """
        if self._closed:
            raise ReproError("client connection is closed")
        budget = timeout if timeout is not None else self.call_timeout
        request_id = next(self._ids)
        future = asyncio.get_running_loop().create_future()
        waiting = self._waiting
        waiting[request_id] = future
        payload = {"id": request_id, "op": op}
        payload.update(fields)
        self._writer.write(encode_frame(payload))
        await self._writer.drain()
        if budget is None:
            return await future
        try:
            return await asyncio.wait_for(future, budget)
        except asyncio.TimeoutError:
            waiting.pop(request_id, None)
            raise CallTimeoutError(op, budget) from None

    async def _roundtrip(self, op: str, fields: dict) -> dict:
        """One logical call: reconnect + retry per policy, and classify
        write failures so a possibly-applied mutation never auto-retries.
        """
        policy = self.retry
        if policy is None or op in _NO_RETRY_OPS:
            await self._ensure_connected()
            return await self.request(op, **fields)
        is_write = op in _WRITE_OPS
        attempts = policy.attempts
        for attempt in range(attempts):
            last = attempt == attempts - 1
            sent = False
            try:
                await self._ensure_connected()
                sent = True
                response = await self.request(op, **fields)
            except ReproError as error:
                if isinstance(error, (CallTimeoutError, ProtocolError)):
                    # Network-shaped; fall through to classification.
                    pass
                else:
                    raise  # structural misuse ("connection is closed")
                if sent and is_write:
                    raise AmbiguousWriteError(op, error) from error
                if last:
                    raise
            except _TRANSIENT_ERRORS as error:
                if sent and is_write:
                    raise AmbiguousWriteError(op, error) from error
                if last:
                    raise
            else:
                if response.get("ok"):
                    return response
                error_obj = response.get("error") or {}
                code = error_obj.get("code")
                if code != "overloaded" or last:
                    # Any structured refusal other than overloaded is
                    # definitive (and for writes, NOT_APPLIED_CODES says
                    # which of them left the graph untouched — the
                    # caller may retry those deliberately).
                    return response
                hint = (error_obj.get("retry_after_ms") or 0) / 1000.0
                await asyncio.sleep(max(policy.delay(attempt), hint))
                continue
            await asyncio.sleep(policy.delay(attempt))
        raise AssertionError("unreachable: retry loop must return/raise")

    def _raise_response_error(self, response: dict) -> None:
        error = response.get("error", {})
        code = error.get("code", "server-error")
        message = error.get("message", "")
        factory = _CODE_EXCEPTIONS.get(code)
        if factory is not None:
            raise factory(message)
        raise ServerError(code, message,
                          retry_after_ms=error.get("retry_after_ms"))

    async def call(self, op: str, **fields: Any) -> Any:
        """Send one request; return ``result`` or raise the error.

        Rides the retry/reconnect layer when a policy is configured."""
        response = await self._roundtrip(op, fields)
        if response.get("ok"):
            return response["result"]
        self._raise_response_error(response)

    async def close(self) -> None:
        """Close the connection; safe against a peer that is already
        gone (severed by a chaos proxy, reset, or simply dead): the
        close never raises and never hangs past ``close_timeout``."""
        self._closed = True
        self._finished = True
        try:
            self._writer.close()
            await asyncio.wait_for(self._writer.wait_closed(),
                                   self.close_timeout)
        except (asyncio.TimeoutError, ConnectionResetError,
                BrokenPipeError, OSError):
            pass
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass

    # ------------------------------------------------------------------
    # op conveniences
    # ------------------------------------------------------------------
    async def ping(self) -> str:
        return await self.call("ping")

    async def epoch(self) -> int:
        return await self.call("epoch")

    async def check(self, source: Any, destination: Any, *,
                    deadline_ms: Optional[float] = None) -> bool:
        fields: dict = {"u": source, "v": destination}
        if deadline_ms is not None:
            fields["deadline_ms"] = deadline_ms
        return await self.call("check", **fields)

    async def check_many(
            self, pairs: Sequence[Tuple[Any, Any]], *,
            deadline_ms: Optional[float] = None) -> List[bool]:
        fields: dict = {"pairs": [[u, v] for u, v in pairs]}
        if deadline_ms is not None:
            fields["deadline_ms"] = deadline_ms
        return await self.call("check-many", **fields)

    async def expand(self, source: Any, *,
                     reflexive: bool = True) -> List[Any]:
        return await self.call("expand", u=source, reflexive=reflexive)

    async def list_reaching(self, destination: Any, *,
                            reflexive: bool = True) -> List[Any]:
        return await self.call("list-reaching", v=destination,
                               reflexive=reflexive)

    async def semijoin_any(self, sources: Sequence[Any],
                           destinations: Sequence[Any]) -> bool:
        return await self.call("semijoin", mode="any",
                               sources=list(sources),
                               destinations=list(destinations))

    async def semijoin_forward(self, sources: Sequence[Any]) -> List[Any]:
        return await self.call("semijoin", mode="forward",
                               sources=list(sources))

    async def semijoin_backward(
            self, destinations: Sequence[Any]) -> List[Any]:
        return await self.call("semijoin", mode="backward",
                               destinations=list(destinations))

    async def add_node(self, node: Any,
                       parents: Sequence[Any] = ()) -> int:
        response = await self._roundtrip(
            "add-node", {"node": node, "parents": list(parents)})
        return self._write_epoch(response)

    async def add_arc(self, source: Any, destination: Any) -> int:
        response = await self._roundtrip("add-arc",
                                         {"u": source, "v": destination})
        return self._write_epoch(response)

    async def remove_arc(self, source: Any, destination: Any) -> int:
        response = await self._roundtrip("remove-arc",
                                         {"u": source, "v": destination})
        return self._write_epoch(response)

    async def remove_node(self, node: Any) -> int:
        response = await self._roundtrip("remove-node", {"node": node})
        return self._write_epoch(response)

    def _write_epoch(self, response: dict) -> int:
        """Write acks resolve to the epoch where the write is visible."""
        if response.get("ok"):
            return response["epoch"]
        self._raise_response_error(response)

    async def stats(self) -> dict:
        return await self.call("stats")

    async def shutdown(self) -> str:
        return await self.call("shutdown")
