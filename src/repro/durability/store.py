"""`DurableTCIndex` — the crash-safe facade over either engine.

A durable store is a directory::

    store.json                  # engine kind + numbering config (fixed)
    checkpoint-<seq:016d>.json  # atomic snapshots, newest wins
    wal-<first_seq:016d>.log    # op-log segments, one per checkpoint era

:meth:`DurableTCIndex.open` either creates that layout (empty engine,
checkpoint 0, log starting at sequence 1) or runs crash recovery over
whatever a dead process left behind (see
:mod:`repro.durability.recovery`) and resumes appending where the
durable history ends.  Every acknowledged mutation is journalled through
the engine's own :attr:`~repro.core.index.IntervalTCIndex.journal` hook,
so the log records exactly the Section 4 op stream the in-memory
algorithms executed — replay is deterministic by construction.

Durability knobs: ``fsync_every`` batches log fsyncs (1 = synchronous,
the default — a crash then loses nothing acknowledged; larger values
trade the tail batch for throughput, see ``bench_durability.py``);
``keep_checkpoints`` retains older snapshot generations so a corrupted
newest checkpoint degrades to a longer replay instead of data loss.

Node labels are strings, numbers, or tuples of these — the log and
checkpoints are JSON documents, read back through
:func:`repro.graph.io.decode_label`.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.index import DEFAULT_GAP
from repro.durability import checkpoint as _checkpoint
from repro.durability import wal as _wal
from repro.durability.atomic import REAL_FS, RealFS, atomic_write_bytes
from repro.durability.recovery import RecoveryReport, recover
from repro.errors import CorruptFileError, PersistenceError, ReproError
from repro.graph.digraph import Node
from repro.obs.instrument import instrumented

CONFIG_NAME = "store.json"
CONFIG_KIND = "durable-store"
CONFIG_FORMAT_VERSION = 1
ENGINE_KINDS = ("interval", "hybrid")


def _read_config(directory: str) -> dict:
    path = os.path.join(directory, CONFIG_NAME)
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        raise
    except OSError as error:
        raise CorruptFileError(path, f"unreadable: {error}") from error
    try:
        config = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise CorruptFileError(path, f"not valid JSON: {error}") from error
    if not isinstance(config, dict) or config.get("kind") != CONFIG_KIND:
        raise CorruptFileError(path, "not a durable-store config")
    if config.get("format_version") != CONFIG_FORMAT_VERSION:
        raise CorruptFileError(
            path,
            f"unsupported store version {config.get('format_version')!r}")
    if config.get("engine") not in ENGINE_KINDS:
        raise CorruptFileError(
            path, f"unknown engine kind {config.get('engine')!r}")
    return config


class DurableTCIndex:
    """Crash-safe transitive-closure store: WAL + checkpoints + recovery.

    Open (or create) with :meth:`open`; mutate with :meth:`add_node`,
    :meth:`add_arc`, :meth:`remove_arc`, :meth:`remove_node`,
    :meth:`renumber`, :meth:`merge_intervals`; query through the shared
    engine surface; snapshot with :meth:`checkpoint`; :meth:`close` when
    done (also a context manager).  :attr:`recovery_report` describes
    what the open had to repair.
    """

    def __init__(self) -> None:
        raise PersistenceError(
            "use DurableTCIndex.open(directory) — the constructor does "
            "not attach storage")

    @classmethod
    def open(cls, directory, *, engine: str = "interval",
             gap: int = DEFAULT_GAP, numbering: str = "integer",
             fsync_every: int = 1, keep_checkpoints: int = 2,
             create: bool = True,
             fs: Optional[RealFS] = None, metrics=None,
             tracer=None) -> "DurableTCIndex":
        """Open a store directory, creating or recovering as needed.

        ``engine``/``gap``/``numbering`` configure a *new* store; an
        existing store's config wins over them.  ``create=False`` raises
        :class:`FileNotFoundError` instead of initialising an empty
        store.  ``metrics``/``tracer`` wire observability into the whole
        stack (store, inner engine, WAL writer) at open time, so the
        recovery that just ran is reported too.
        """
        if engine not in ENGINE_KINDS:
            raise PersistenceError(
                f"engine must be one of {ENGINE_KINDS}, got {engine!r}")
        if keep_checkpoints < 1:
            raise PersistenceError(
                f"keep_checkpoints must be >= 1, got {keep_checkpoints}")
        self = cls.__new__(cls)
        self._fs = fs or REAL_FS
        self._directory = str(directory)
        self._fsync_every = fsync_every
        self._keep_checkpoints = keep_checkpoints
        self._writer: Optional[_wal.WalWriter] = None
        self._closed = False
        self._obs = None
        self._tracer = None
        self._wal_instruments = None
        self._recovery_ns: Optional[int] = None

        config_path = os.path.join(self._directory, CONFIG_NAME)
        if os.path.exists(config_path):
            config = _read_config(self._directory)
            self._config = config
            self._recover()
        else:
            if not create:
                raise FileNotFoundError(
                    f"{config_path}: not a durable store (create=False)")
            os.makedirs(self._directory, exist_ok=True)
            self._config = {
                "kind": CONFIG_KIND,
                "format_version": CONFIG_FORMAT_VERSION,
                "engine": engine,
                "gap": gap,
                "numbering": numbering,
            }
            self._initialise()
        if metrics is not None or tracer is not None:
            from repro.obs.instrument import attach
            attach(self, metrics=metrics, tracer=tracer)
        return self

    # ------------------------------------------------------------------
    # open paths
    # ------------------------------------------------------------------
    def _empty_engine(self):
        from repro.core.hybrid import HybridTCIndex
        from repro.core.index import IntervalTCIndex
        from repro.graph.digraph import DiGraph
        config = self._config
        if config["engine"] == "hybrid":
            return HybridTCIndex.build(DiGraph(), gap=config["gap"],
                                       numbering=config["numbering"])
        return IntervalTCIndex.build(DiGraph(), gap=config["gap"],
                                     numbering=config["numbering"])

    def _initialise(self) -> None:
        """Fresh store: config, checkpoint 0, empty first log segment."""
        atomic_write_bytes(os.path.join(self._directory, CONFIG_NAME),
                           json.dumps(self._config, indent=2).encode("utf-8"),
                           fs=self._fs, label="config")
        self._engine = self._empty_engine()
        _checkpoint.write_checkpoint(self._directory, self._engine, 0,
                                     fs=self._fs)
        self._report = None
        self._open_writer(os.path.join(self._directory,
                                       _checkpoint.wal_name(1)),
                          next_seq=1)

    def _recover(self) -> None:
        """Existing store: run recovery, then resume the log tail."""
        config = self._config
        started = time.perf_counter_ns()
        self._engine, report = recover(
            self._directory, engine_kind=config["engine"],
            gap=config["gap"], numbering=config["numbering"])
        self._recovery_ns = time.perf_counter_ns() - started
        self._report = report
        next_seq = report.last_seq + 1
        if report.tail_path is not None:
            tail = report.tail_path
        else:
            tail = os.path.join(self._directory,
                                _checkpoint.wal_name(next_seq))
        self._open_writer(tail, next_seq=next_seq)

    def _open_writer(self, path: str, *, next_seq: int) -> None:
        self._writer = _wal.WalWriter(path, next_seq=next_seq,
                                      fsync_every=self._fsync_every,
                                      fs=self._fs)
        self._writer.metrics = self._wal_instruments
        self._engine.journal = self._writer

    def _attach_observability(self, registry, tracer) -> None:
        """Finish :func:`repro.obs.instrument.attach` for the full stack.

        ``attach`` already set ``_obs``/``_tracer`` on the store itself;
        this wires the inner engine, the WAL writer, and reports the
        recovery that ran at open time (once — re-attaching later does
        not double-count it).
        """
        from repro.obs.instrument import WalInstruments, attach
        attach(self._engine, metrics=registry, tracer=tracer)
        if registry is None:
            self._wal_instruments = None
            if self._writer is not None:
                self._writer.metrics = None
            return
        self._wal_instruments = WalInstruments(registry)
        if self._writer is not None:
            self._writer.metrics = self._wal_instruments
        obs = self._obs
        if self._recovery_ns is not None and obs is not None:
            obs.counter("tc_recoveries_total",
                        help="crash recoveries run at open").inc()
            obs.histogram("tc_recovery_seconds",
                          help="wall time of open-time recovery "
                          ).observe_ns(self._recovery_ns)
            if self._report is not None:
                obs.counter("tc_recovered_ops_total",
                            help="WAL records replayed by recovery"
                            ).inc(self._report.ops_replayed)
            self._recovery_ns = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def directory(self) -> str:
        return self._directory

    @property
    def engine_kind(self) -> str:
        """``"interval"`` or ``"hybrid"`` (fixed at store creation)."""
        return self._config["engine"]

    @property
    def engine(self):
        """The live in-memory engine (journalled; mutate it freely)."""
        return self._engine

    @property
    def index(self):
        """The underlying :class:`IntervalTCIndex` ground truth."""
        engine = self._engine
        return engine.index if self._config["engine"] == "hybrid" else engine

    @property
    def last_seq(self) -> int:
        """Sequence number of the last journalled operation."""
        return self._writer.last_seq if self._writer else 0

    @property
    def recovery_report(self) -> Optional[RecoveryReport]:
        """What opening had to repair (``None`` for a fresh store)."""
        return self._report

    # ------------------------------------------------------------------
    # mutations — the engine journals each one through the WAL hook
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed or self._writer is None:
            raise PersistenceError(f"{self._directory}: store is closed")

    @instrumented("add_node")
    def add_node(self, node: Node, parents: Sequence[Node] = ()) -> None:
        self._check_open()
        self._engine.add_node(node, list(parents))

    @instrumented("add_arc")
    def add_arc(self, source: Node, destination: Node) -> None:
        self._check_open()
        self._engine.add_arc(source, destination)

    @instrumented("remove_arc")
    def remove_arc(self, source: Node, destination: Node) -> None:
        self._check_open()
        self._engine.remove_arc(source, destination)

    @instrumented("remove_node")
    def remove_node(self, node: Node) -> None:
        self._check_open()
        self._engine.remove_node(node)

    def renumber(self, gap: Optional[int] = None) -> None:
        self._check_open()
        self.index.renumber(gap)

    def merge_intervals(self) -> None:
        self._check_open()
        self.index.merge_intervals()

    def apply_diff(self, text: str) -> int:
        """Apply the CLI's textual diff format; returns ops applied.

        Resolution mirrors :func:`repro.core.batch.apply_diff` (a ``+ a
        b`` line inserts a node when an end-point is new), but every
        operation routes through the store's journalled mutators — the
        batch module's deferred-maintenance path bypasses the journal.
        """
        from repro.core.batch import parse_diff
        self._check_open()
        applied = 0
        known = {node for node in self.index.nodes()}
        for operation in parse_diff(text):
            kind = operation[0]
            if kind == "+arc":
                _, source, destination = operation
                if source in known and destination in known:
                    self.add_arc(source, destination)
                elif source in known:
                    self.add_node(destination, [source])
                    known.add(destination)
                elif destination in known:
                    self.add_node(source, [])
                    known.add(source)
                    self.add_arc(source, destination)
                else:
                    self.add_node(source, [])
                    self.add_node(destination, [source])
                    known.update((source, destination))
            elif kind == "add-node":
                self.add_node(operation[1], operation[2])
                known.add(operation[1])
            elif kind == "add-arc":
                self.add_arc(operation[1], operation[2])
            elif kind == "remove-arc":
                self.remove_arc(operation[1], operation[2])
            elif kind == "remove-node":
                self.remove_node(operation[1])
                known.discard(operation[1])
            else:  # pragma: no cover - parse_diff emits only the above
                raise ReproError(f"unknown diff operation {kind!r}")
            applied += 1
        return applied

    # ------------------------------------------------------------------
    # queries (delegate to the engine)
    # ------------------------------------------------------------------
    @instrumented("reachable")
    def reachable(self, source: Node, destination: Node) -> bool:
        return self._engine.reachable(source, destination)

    @instrumented("successors")
    def successors(self, source: Node, *, reflexive: bool = True) -> Set[Node]:
        return self._engine.successors(source, reflexive=reflexive)

    @instrumented("predecessors")
    def predecessors(self, destination: Node, *,
                     reflexive: bool = True) -> Set[Node]:
        return self._engine.predecessors(destination, reflexive=reflexive)

    def iter_successors(self, source: Node, *,
                        reflexive: bool = True) -> Iterator[Node]:
        return self._engine.iter_successors(source, reflexive=reflexive)

    @instrumented("count_successors")
    def count_successors(self, source: Node, *, reflexive: bool = True) -> int:
        return self._engine.count_successors(source, reflexive=reflexive)

    @instrumented("reachable_many")
    def reachable_many(self, pairs: Iterable[Tuple[Node, Node]]) -> List[bool]:
        return self._engine.reachable_many(pairs)

    @instrumented("successors_many")
    def successors_many(self, sources: Iterable[Node], *,
                        reflexive: bool = True) -> List[Set[Node]]:
        return self._engine.successors_many(sources, reflexive=reflexive)

    @instrumented("predecessors_many")
    def predecessors_many(self, destinations: Iterable[Node], *,
                          reflexive: bool = True) -> List[Set[Node]]:
        return self._engine.predecessors_many(destinations,
                                              reflexive=reflexive)

    @instrumented("reachable_from_set")
    def reachable_from_set(self, sources: Iterable[Node]) -> Set[Node]:
        return self._engine.reachable_from_set(sources)

    @instrumented("reaching_set")
    def reaching_set(self, destinations: Iterable[Node]) -> Set[Node]:
        return self._engine.reaching_set(destinations)

    @instrumented("any_reachable")
    def any_reachable(self, sources: Iterable[Node],
                      destinations: Iterable[Node]) -> bool:
        return self._engine.any_reachable(sources, destinations)

    @instrumented("are_disjoint")
    def are_disjoint(self, first: Node, second: Node) -> bool:
        return self._engine.are_disjoint(first, second)

    def nodes(self) -> Iterator[Node]:
        return self._engine.nodes()

    def capabilities(self) -> "EngineCapabilities":
        """Journalled mutations; batch behaviour follows the inner engine."""
        from repro.core.engine import EngineCapabilities
        inner = self._engine.capabilities()
        return EngineCapabilities(
            kind="durable", supports_updates=True,
            supports_batch=inner.supports_batch,
            is_frozen_snapshot=False, durable=True)

    def stats(self) -> dict:
        """Engine size report plus the store's durability accounting."""
        engine_stats = self._engine.stats()
        if hasattr(engine_stats, "as_dict"):
            engine_stats = engine_stats.as_dict()
        return {
            "engine": self._config["engine"],
            "directory": self._directory,
            "last_seq": self.last_seq,
            "engine_stats": engine_stats,
        }

    def __contains__(self, node: Node) -> bool:
        return node in self._engine

    def __len__(self) -> int:
        return len(self._engine)

    def verify(self) -> None:
        """Engine-level closure verification (tests and audits)."""
        self._engine.verify()

    # ------------------------------------------------------------------
    # durability control
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Force the pending WAL batch to stable storage now."""
        self._check_open()
        self._writer.sync()

    def checkpoint(self, *, frozen_sidecar: bool = False) -> str:
        """Snapshot current state atomically; rotate the log.

        Sequence: fsync the log (nothing acknowledged can be lost by
        what follows), publish ``checkpoint-<seq>.json`` atomically,
        start a fresh log segment, then delete generations and segments
        older than the retention window.  A crash at *any* point leaves
        a recoverable store — at worst the old checkpoint plus a full
        replay.  Returns the new checkpoint's path.

        ``frozen_sidecar=True`` also publishes the frozen snapshot as a
        zero-copy ``checkpoint-<seq>.rtcf`` next to the generation (see
        :func:`repro.durability.checkpoint.write_checkpoint`); rotation
        removes sidecars together with their generations.
        """
        self._check_open()
        obs = self._obs
        started = time.perf_counter_ns() if obs is not None else 0
        writer = self._writer
        writer.sync()
        seq = writer.last_seq
        path = _checkpoint.write_checkpoint(self._directory, self._engine,
                                            seq, fs=self._fs,
                                            frozen_sidecar=frozen_sidecar)
        writer.close()
        self._open_writer(os.path.join(self._directory,
                                       _checkpoint.wal_name(seq + 1)),
                          next_seq=seq + 1)
        _checkpoint.rotate(self._directory, keep=self._keep_checkpoints,
                           fs=self._fs)
        self._fs.crash_point("checkpoint.post-rotate")
        if obs is not None:
            obs.counter("tc_checkpoint_total",
                        help="checkpoints published").inc()
            obs.histogram("tc_checkpoint_seconds",
                          help="checkpoint publish wall time"
                          ).observe_ns(time.perf_counter_ns() - started)
        return path

    def log_stats(self) -> dict:
        """Durability accounting for the open store."""
        stats = log_stats(self._directory)
        stats["pending"] = self._writer.pending if self._writer else 0
        stats["fsync_every"] = self._fsync_every
        stats["last_seq"] = self.last_seq
        return stats

    def close(self) -> None:
        """Fsync and release the log; the store directory stays valid."""
        if self._writer is not None:
            if self._engine.journal is self._writer:
                self._engine.journal = None
            self._writer.close()
            self._writer = None
        self._closed = True

    def __enter__(self) -> "DurableTCIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"DurableTCIndex(directory={self._directory!r}, "
                f"engine={self._config['engine']!r}, nodes={len(self)}, "
                f"last_seq={self.last_seq})")


def log_stats(directory) -> dict:
    """Read-only durability stats for a store directory (CLI ``log-stats``).

    Scans segment sizes and record counts without opening the store (and
    without replaying), so it is safe on a store another process owns.
    """
    directory = str(directory)
    config = _read_config(directory)  # raises on a non-store directory
    checkpoints = _checkpoint.list_checkpoints(directory)
    segments = _checkpoint.list_segments(directory)
    segment_rows: List[dict] = []
    total_records = 0
    total_bytes = 0
    torn_bytes = 0
    for first_seq, path in segments:
        scan = _wal.scan_wal(path)
        size = os.path.getsize(path)
        segment_rows.append({
            "path": os.path.basename(path),
            "first_seq": first_seq,
            "records": len(scan.records),
            "bytes": size,
            "torn_bytes": scan.torn_bytes,
        })
        total_records += len(scan.records)
        total_bytes += size
        torn_bytes += scan.torn_bytes
    newest = checkpoints[-1][0] if checkpoints else None
    last_seq = newest or 0
    for row in reversed(segment_rows):
        if row["records"]:
            tail_first = row["first_seq"]
            last_seq = max(last_seq, tail_first + row["records"] - 1)
            break
    return {
        "directory": directory,
        "engine": config["engine"],
        "checkpoints": [{"wal_seq": seq, "path": os.path.basename(path)}
                        for seq, path in checkpoints],
        "newest_checkpoint_seq": newest,
        "segments": segment_rows,
        "total_records": total_records,
        "total_bytes": total_bytes,
        "torn_bytes": torn_bytes,
        "last_seq": last_seq,
        "replay_backlog": (last_seq - newest) if newest is not None
        else last_seq,
    }
