"""Crash recovery: newest usable checkpoint + WAL-tail replay.

The recovery contract, in degradation order:

1. Load the newest checkpoint whose header validates and whose payload
   matches its CRC.  Generations that fail validation are *skipped* (and
   counted in the report), falling back to the next-older one — rotation
   keeps the WAL reaching back far enough for that replay.
2. Replay every WAL record with ``seq > checkpoint.wal_seq`` through the
   real Section 4 update algorithms, in order.  Segments entirely covered
   by the checkpoint are skipped without scanning.
3. A **torn final record** — the file ends mid-record — is legal in the
   *last* segment only: it is the signature of a crash between ``write``
   and ``fsync``, and recovery truncates it (reporting the byte count).
   Anywhere else it means interior loss and recovery refuses.
4. Interior damage (checksum mismatch, sequence gap, an op the engine
   rejects) raises a typed error — :class:`~repro.errors.CorruptFileError`
   or :class:`~repro.errors.RecoveryError` — **never** a silently wrong
   index.
5. No usable checkpoint at all is still recoverable when the log reaches
   back to sequence 1: the store replays its entire history from an
   empty engine (``started_empty`` in the report).

Everything recovery learns lands in a :class:`RecoveryReport`, which the
CLI ``recover`` subcommand prints as JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.durability import checkpoint as _checkpoint
from repro.durability import wal as _wal
from repro.errors import (CorruptFileError, RecoveryError, ReproError,
                          SimulatedCrash)
from repro.graph.io import decode_label, decode_labels


@dataclass
class RecoveryReport:
    """What one recovery pass found and did."""

    directory: str
    engine: str = "interval"
    checkpoint_seq: int = 0
    checkpoint_path: Optional[str] = None
    #: Checkpoint generations skipped as unusable, newest first:
    #: ``(path, reason)`` pairs.
    checkpoints_skipped: List[Tuple[str, str]] = field(default_factory=list)
    ops_replayed: int = 0
    segments_scanned: int = 0
    truncated_bytes: int = 0
    tail_path: Optional[str] = None
    tail_valid_bytes: int = 0
    last_seq: int = 0
    started_empty: bool = False

    @property
    def corruption_detected(self) -> bool:
        """Whether any generation or tail had to be discarded."""
        return bool(self.checkpoints_skipped) or self.truncated_bytes > 0

    def as_dict(self) -> dict:
        """JSON-ready view (the CLI ``recover`` output)."""
        return {
            "directory": self.directory,
            "engine": self.engine,
            "checkpoint_seq": self.checkpoint_seq,
            "checkpoint_path": self.checkpoint_path,
            "checkpoints_skipped": [list(pair)
                                    for pair in self.checkpoints_skipped],
            "ops_replayed": self.ops_replayed,
            "segments_scanned": self.segments_scanned,
            "truncated_bytes": self.truncated_bytes,
            "tail_path": self.tail_path,
            "tail_valid_bytes": self.tail_valid_bytes,
            "last_seq": self.last_seq,
            "started_empty": self.started_empty,
            "corruption_detected": self.corruption_detected,
        }


def apply_op(engine, op: list) -> None:
    """Replay one journalled operation through the real update methods.

    Works on both engine classes.  ``renumber`` and ``merge`` address the
    interval representation, so on a hybrid they go to the write-through
    index underneath (tainting the snapshot — still exact).  Node
    arguments are JSON-decoded labels, so tuples come back through
    :func:`~repro.graph.io.decode_label`.
    """
    from repro.core.hybrid import HybridTCIndex
    kind = op[0] if op else None
    if kind == "add_node":
        engine.add_node(decode_label(op[1]), decode_labels(op[2]))
    elif kind == "add_arc":
        engine.add_arc(decode_label(op[1]), decode_label(op[2]))
    elif kind == "remove_arc":
        engine.remove_arc(decode_label(op[1]), decode_label(op[2]))
    elif kind == "remove_node":
        engine.remove_node(decode_label(op[1]))
    elif kind == "renumber":
        if isinstance(engine, HybridTCIndex):
            engine.index.renumber(op[1])
        else:
            engine.renumber(op[1])
    elif kind == "merge":
        if isinstance(engine, HybridTCIndex):
            engine.index.merge_intervals()
        else:
            engine.merge_intervals()
    else:
        raise RecoveryError(f"unknown WAL operation kind {kind!r}")


def _empty_engine(kind: str, *, gap: int, numbering: str):
    from repro.core.hybrid import HybridTCIndex
    from repro.core.index import IntervalTCIndex
    from repro.graph.digraph import DiGraph
    if kind == "hybrid":
        return HybridTCIndex.build(DiGraph(), gap=gap, numbering=numbering)
    if kind == "interval":
        return IntervalTCIndex.build(DiGraph(), gap=gap, numbering=numbering)
    raise RecoveryError(f"unknown engine kind {kind!r}")


def recover(directory, *, engine_kind: str = "interval", gap: int,
            numbering: str = "integer"):
    """Reconstruct the newest consistent engine state in ``directory``.

    Returns ``(engine, report)``.  ``engine_kind``/``gap``/``numbering``
    describe the store configuration (from its ``store.json``) and are
    only used when no checkpoint survives and history must replay from
    an empty engine.

    Raises :class:`RecoveryError` when no consistent state is
    reconstructible, :class:`CorruptFileError` on interior log damage.
    """
    directory = str(directory)
    report = RecoveryReport(directory=directory, engine=engine_kind)

    # -- 1. newest usable checkpoint --------------------------------------
    engine = None
    checkpoint_seq = 0
    for seq, path in reversed(_checkpoint.list_checkpoints(directory)):
        try:
            engine, checkpoint_seq, kind = _checkpoint.load_checkpoint(path)
        except CorruptFileError as error:
            report.checkpoints_skipped.append((path, error.detail))
            continue
        report.checkpoint_path = path
        report.engine = kind
        break
    report.checkpoint_seq = checkpoint_seq
    report.last_seq = checkpoint_seq

    segments = _checkpoint.list_segments(directory)
    if engine is None:
        # Every generation was unusable (or none was ever written).  The
        # full history can still replay — but only if the log reaches
        # back to the very first operation.
        if segments and segments[0][0] != 1:
            raise RecoveryError(
                f"{directory}: no usable checkpoint and the write-ahead "
                f"log starts at sequence {segments[0][0]}, not 1 — "
                f"{len(report.checkpoints_skipped)} checkpoint(s) were "
                f"skipped as corrupt")
        engine = _empty_engine(engine_kind, gap=gap, numbering=numbering)
        report.engine = engine_kind
        report.started_empty = True

    # -- 2. replay the uncovered tail -------------------------------------
    expected = checkpoint_seq + 1
    for position, (first_seq, path) in enumerate(segments):
        is_last = position == len(segments) - 1
        next_first = segments[position + 1][0] if not is_last else None
        if next_first is not None and next_first <= expected:
            continue  # fully covered by the checkpoint: skip unscanned
        scan = _wal.scan_wal(path)
        report.segments_scanned += 1
        if scan.torn_bytes:
            if not is_last:
                raise CorruptFileError(
                    path,
                    f"torn record mid-log ({scan.torn_bytes} trailing "
                    f"bytes) in a non-final segment")
            # -- 3. the crash signature: truncate the torn tail ----------
            report.truncated_bytes += _wal.truncate_torn_tail(
                path, scan.valid_bytes)
        if is_last:
            report.tail_path = path
            report.tail_valid_bytes = scan.valid_bytes
        if scan.records:
            if first_seq != scan.records[0][0]:
                raise CorruptFileError(
                    path,
                    f"segment name claims first sequence {first_seq} but "
                    f"the log starts at {scan.records[0][0]}")
            if scan.records[0][0] > expected:
                raise RecoveryError(
                    f"{path}: write-ahead log is missing sequences "
                    f"{expected}..{scan.records[0][0] - 1}")
        for seq, op in scan.records:
            if seq < expected:
                continue  # already folded into the checkpoint
            if seq != expected:
                raise RecoveryError(
                    f"{path}: expected sequence {expected}, found {seq}")
            try:
                apply_op(engine, op)
            except SimulatedCrash:
                raise
            except ReproError as error:
                raise RecoveryError(
                    f"{path}: replay of op {seq} ({op[0] if op else '?'}) "
                    f"failed: {error}") from error
            expected = seq + 1
            report.ops_replayed += 1
    report.last_seq = expected - 1
    return engine, report
