"""Batch coalescing: many wire checks, one vectorised call.

``BENCH_frozen.json``'s 4.5x batched-reachability win was only reachable
from Python callers who already held a list of pairs.  The coalescer
recovers it at the wire: ``check`` requests that arrive concurrently —
from any number of connections — are gathered for one scheduler pass
(or until a size threshold) and answered by a single
:meth:`~repro.core.frozen.FrozenTCIndex.reachable_many` call against one
pinned snapshot.  Every request in a batch is therefore answered at the
same epoch: a batch cannot tear across an epoch swap by construction.

The drain is queued with ``call_soon``, so every check whose socket
data arrived in the same event-loop ready cycle lands in the same
batch, at zero added latency — closed-loop clients are never left
waiting on a timer for traffic that cannot arrive (their next request
is blocked on our answer).  A size threshold (:data:`DEFAULT_MAX_BATCH`
pairs) drains early, bounding both latency and peak batch memory.

Submissions are *groups*: a connection that read several pipelined
checks in one socket chunk submits them as one group, so per-request
overhead is paid per connection-flush, not per check.  Groups complete
in one of two ways: :meth:`~BatchCoalescer.submit_group` invokes a
plain callback synchronously inside the drain (the wire hot path — no
future, no task suspension, the drain writes every response itself),
while :meth:`~BatchCoalescer.check_group` resolves an awaitable (the
``check-many`` op and other in-coroutine callers).
"""

from __future__ import annotations

import asyncio
import time
from typing import List, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry

__all__ = ["BatchCoalescer", "CheckGroup", "EXPIRED"]


class _Expired:
    """Sentinel answer for a check whose deadline passed before the
    drain reached it.  Distinct from ``None`` (node not in snapshot):
    the caller turns it into a ``deadline-exceeded`` error."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "EXPIRED"


EXPIRED = _Expired()


def _member(engine, node) -> bool:
    """Membership that treats unhashable values as simply absent.

    The wire layer rejects unhashable ``u``/``v`` at parse time, but
    ``check_group`` is also a public in-process surface — and one bad
    value must never abort a drain that other connections' groups are
    riding in.
    """
    try:
        return node in engine
    except TypeError:
        return False


#: Drain-now threshold, total pairs across pending groups.
DEFAULT_MAX_BATCH = 512
#: Below this many pairs a drain answers with scalar lookups.  On a
#: mapped RTCF of ``random_dag(10000, 3.0)`` with string labels (2-CPU
#: box, best of 15 repeats), singles take ~1.2 us per pair and
#: ``reachable_many`` ~10 us fixed plus ~0.2 us per pair; singles
#: against batch read 12.5 against 12.8 us at 10 pairs and 16.6
#: against 13.4 us at 14.  Int labels that read the lookup table cross
#: later (~15 us fixed; 14.7 against 18.5 us at 16 pairs, 19.1 against
#: 18.2 us at 20).
SCALAR_CUTOFF = 12


class CheckGroup:
    """One connection's flush of checks awaiting a shared answer.

    Exactly one of ``future`` / ``callback`` is set: a future suspends
    an awaiting coroutine, a callback runs synchronously in the drain.
    ``deadline`` is a ``time.monotonic()`` instant past which *every*
    check in the group is worthless — the drain then skips the lookups
    entirely and answers :data:`EXPIRED` (the load-shedding half of
    deadline enforcement: expired queued work must not consume the
    engine time that live requests need).
    """

    __slots__ = ("pairs", "future", "callback", "deadline")

    def __init__(self, pairs: Sequence[Tuple[object, object]],
                 future: Optional["asyncio.Future"] = None,
                 callback=None, deadline: Optional[float] = None) -> None:
        self.pairs = pairs
        self.future = future
        self.callback = callback
        self.deadline = deadline


class BatchCoalescer:
    """Gather concurrent check groups; answer each batch from one snapshot.

    ``get_snapshot`` is called exactly once per drain, so every answer in
    a batch comes from the same epoch.  Answers are ``True``/``False``,
    or ``None`` for a pair naming a node absent from that snapshot (the
    caller turns ``None`` into a structured ``not-found`` error — a node
    may vanish between enqueue and drain when a remove races the check,
    so membership is judged against the serving snapshot, not arrival
    state).
    """

    def __init__(self, get_snapshot, *, enabled: bool = True,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self._get_snapshot = get_snapshot
        self.enabled = enabled
        self._pending: List[CheckGroup] = []
        self._pending_pairs = 0
        self._drain_handle = None
        registry = metrics if metrics is not None \
            else MetricsRegistry(enabled=False)
        self._batches = registry.counter(
            "tc_server_batches_total",
            help="coalesced reachable_many drains")
        self._coalesced = registry.counter(
            "tc_server_coalesced_checks_total",
            help="checks answered through a coalesced batch")
        self._batch_size = registry.histogram(
            "tc_server_batch_size",
            help="pairs answered per coalesced drain",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024))
        self._expired = registry.counter(
            "tc_server_expired_checks_total",
            help="queued checks dropped unanswered because their "
                 "deadline passed before the drain")

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    async def check_group(
            self, pairs: Sequence[Tuple[object, object]], *,
            deadline: Optional[float] = None
    ) -> Tuple[List[Optional[bool]], object]:
        """Answer a group of ``(source, destination)`` checks.

        Returns ``(answers, snapshot)``; ``answers[i]`` is ``None`` when
        a node of ``pairs[i]`` is not in the serving snapshot, or
        :data:`EXPIRED` when ``deadline`` passed before the drain ran.
        The snapshot is the exact one the batch was answered from, so
        the caller can attribute a ``None`` to its missing node without
        racing a concurrent epoch swap.
        """
        if not self.enabled or not pairs:
            return self.answer_now(pairs)
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._pending.append(CheckGroup(pairs, future=future,
                                        deadline=deadline))
        self._pending_pairs += len(pairs)
        self._schedule_drain(loop)
        return await future

    def submit_group(self, pairs: Sequence[Tuple[object, object]],
                     callback, *, deadline: Optional[float] = None) -> None:
        """Enqueue a group whose ``callback(answers, snapshot)`` runs in
        the drain — the wire hot path, with no future and no task wakeup.

        The callback must not raise and must not block; it runs inside
        the drain, so a slow callback delays every group in the batch.
        """
        self._pending.append(CheckGroup(pairs, callback=callback,
                                        deadline=deadline))
        self._pending_pairs += len(pairs)
        self._schedule_drain(asyncio.get_running_loop())

    def _schedule_drain(self, loop) -> None:
        if self._pending_pairs >= DEFAULT_MAX_BATCH:
            self._drain()
            return
        if self._drain_handle is None:
            # One scheduler pass: everything already in the loop's ready
            # queue joins the batch, and nobody waits on a timer.
            self._drain_handle = loop.call_soon(self._drain)

    def answer_now(self, pairs) -> Tuple[List[Optional[bool]], object]:
        """The no-coalescing path: singles against the current snapshot."""
        snapshot = self._get_snapshot()
        engine = snapshot.engine
        answers: List[Optional[bool]] = []
        for source, destination in pairs:
            if _member(engine, source) and _member(engine, destination):
                answers.append(bool(engine.reachable(source, destination)))
            else:
                answers.append(None)
        return answers, snapshot

    # ------------------------------------------------------------------
    # draining
    # ------------------------------------------------------------------
    def _drain(self) -> None:
        """Answer every pending group from one pinned snapshot.

        Runs as a plain callback — there is no await inside, so the
        batch is computed and resolved atomically with respect to the
        event loop.
        """
        if self._drain_handle is not None:
            self._drain_handle.cancel()
            self._drain_handle = None
        groups, self._pending = self._pending, []
        batch_pairs, self._pending_pairs = self._pending_pairs, 0
        if not groups:
            return
        snapshot = self._get_snapshot()
        engine = snapshot.engine
        now = time.monotonic()

        flat: List[Tuple[object, object]] = []
        slots: List[Tuple[int, int]] = []
        answers_per_group: List[List[Optional[bool]]] = []
        for group_index, group in enumerate(groups):
            if group.deadline is not None and now >= group.deadline:
                # The whole group is already worthless: answering it
                # would spend engine time live requests need.  This is
                # the shedding half of deadline enforcement.
                answers_per_group.append([EXPIRED] * len(group.pairs))
                self._expired.inc(len(group.pairs))
                continue
            answers: List[Optional[bool]] = [None] * len(group.pairs)
            for position, (source, destination) in enumerate(group.pairs):
                if _member(engine, source) and _member(engine, destination):
                    slots.append((group_index, position))
                    flat.append((source, destination))
            answers_per_group.append(answers)
        if flat:
            if len(flat) < SCALAR_CUTOFF:
                hits = [engine.reachable(source, destination)
                        for source, destination in flat]
            else:
                hits = engine.reachable_many(flat)
            for (group_index, position), hit in zip(slots, hits):
                answers_per_group[group_index][position] = bool(hit)

        self._batches.inc()
        self._batch_size.observe(batch_pairs)
        if len(groups) > 1 or batch_pairs > len(groups):
            self._coalesced.inc(batch_pairs)
        for group, answers in zip(groups, answers_per_group):
            if group.callback is not None:
                try:
                    group.callback(answers, snapshot)
                except Exception:  # noqa: BLE001
                    # One connection's encoder must not poison the rest
                    # of the batch (its peer is likely gone anyway).
                    continue
            elif not group.future.cancelled():
                group.future.set_result((answers, snapshot))

    def stats(self) -> dict:
        return {
            "enabled": self.enabled,
            "pending_pairs": self._pending_pairs,
        }
