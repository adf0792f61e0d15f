"""The one seam where observability attaches to engines.

Every engine class carries two attributes, ``_obs`` (an
:class:`EngineInstruments` bound to a :class:`~repro.obs.metrics.MetricsRegistry`)
and ``_tracer`` (a :class:`~repro.obs.tracing.QueryTracer`), both ``None``
by default.  The :func:`instrumented` decorator wraps each public op: when
both attributes are ``None`` the wrapper is two attribute reads and a
branch; otherwise it counts the call, times it into a per-``(engine, op)``
histogram, and opens a trace span (so a hybrid query that consults its
frozen base produces a nested span tree, not two flat ones).

:func:`attach` wires a registry/tracer into an engine instance after
construction — recursing into composite engines (hybrid → write-through
index + pinned base; durable → inner engine + WAL writer) and registering
the paper-level health gauges (interval counts, gap budget, renumber
activity — Sections 3 and 5) as live callbacks.

This module must stay importable by every engine module, so it imports
nothing from :mod:`repro.core` or :mod:`repro.durability` at module level.
"""

from __future__ import annotations

import functools
import time
import weakref
from typing import Callable, Optional

from repro.obs.metrics import MetricsRegistry

__all__ = ["EngineInstruments", "WalInstruments", "instrumented", "attach"]


class EngineInstruments:
    """Per-engine handle that lazily creates ``(engine, op)`` instruments."""

    __slots__ = ("registry", "engine", "_ops", "_extras")

    def __init__(self, registry: MetricsRegistry, engine: str) -> None:
        self.registry = registry
        self.engine = engine
        self._ops: dict = {}
        self._extras: dict = {}

    def op(self, name: str):
        """The ``(counter, histogram)`` pair for one operation name."""
        pair = self._ops.get(name)
        if pair is None:
            labels = {"engine": self.engine, "op": name}
            pair = (
                self.registry.counter(
                    "tc_op_total", help="engine operations", labels=labels),
                self.registry.histogram(
                    "tc_op_latency_seconds",
                    help="per-operation wall time", labels=labels),
            )
            self._ops[name] = pair
        return pair

    def counter(self, name: str, help: str = ""):
        """An engine-labelled counter outside the per-op family."""
        instrument = self._extras.get(("counter", name))
        if instrument is None:
            instrument = self.registry.counter(
                name, help=help, labels={"engine": self.engine})
            self._extras[("counter", name)] = instrument
        return instrument

    def histogram(self, name: str, help: str = "", buckets=None):
        """An engine-labelled histogram outside the per-op family."""
        instrument = self._extras.get(("histogram", name))
        if instrument is None:
            instrument = self.registry.histogram(
                name, help=help, buckets=buckets,
                labels={"engine": self.engine})
            self._extras[("histogram", name)] = instrument
        return instrument

    def child(self, engine: str) -> "EngineInstruments":
        """Instruments for a nested engine, sharing this registry."""
        return EngineInstruments(self.registry, engine)


class WalInstruments:
    """The durability layer's WAL metrics, created once per registry."""

    __slots__ = ("append_total", "append_seconds", "fsync_total",
                 "fsync_seconds", "pending")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.append_total = registry.counter(
            "tc_wal_appends_total", help="records appended to the WAL")
        self.append_seconds = registry.histogram(
            "tc_wal_append_seconds", help="WAL record append wall time")
        self.fsync_total = registry.counter(
            "tc_wal_fsyncs_total", help="WAL fsync batches flushed")
        self.fsync_seconds = registry.histogram(
            "tc_wal_fsync_seconds", help="WAL fsync wall time")
        self.pending = registry.gauge(
            "tc_wal_pending_records",
            help="appended records not yet covered by an fsync")


def instrumented(op: str) -> Callable:
    """Decorate an engine method as one observable operation.

    Disabled path (no registry, no tracer): two attribute reads and one
    branch.  Enabled: count + latency histogram under labels
    ``{engine, op}``; with a tracer, the call body runs inside a span
    named ``op`` so nested engine calls build a span tree.  Signatures
    survive via ``functools.wraps`` (``inspect.signature`` follows
    ``__wrapped__``), which the conformance suite relies on.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            obs = self._obs
            tracer = self._tracer
            if obs is None and tracer is None:
                return fn(self, *args, **kwargs)
            started = time.perf_counter_ns()
            try:
                if tracer is not None:
                    with tracer.span(op, engine=type(self).__name__):
                        return fn(self, *args, **kwargs)
                return fn(self, *args, **kwargs)
            finally:
                if obs is not None:
                    counter, histogram = obs.op(op)
                    counter.inc()
                    histogram.observe_ns(time.perf_counter_ns() - started)
        return wrapper

    return decorate


def _live(ref: "weakref.ref", getter: Callable) -> Callable[[], float]:
    """A gauge callback that survives its engine being garbage-collected."""

    def read() -> float:
        engine = ref()
        if engine is None:
            return 0.0
        return float(getter(engine))

    return read


def _gauge(registry: MetricsRegistry, name: str, help: str, label: str,
           ref: "weakref.ref", getter: Callable) -> None:
    gauge = registry.gauge(name, help=help, labels={"engine": label})
    gauge.set_function(_live(ref, getter))


def _register_interval_gauges(registry: MetricsRegistry, engine,
                              label: str) -> None:
    ref = weakref.ref(engine)
    _gauge(registry, "tc_nodes", "indexed nodes", label, ref, len)
    _gauge(registry, "tc_intervals_total",
           "total stored intervals (Section 5 space metric)", label, ref,
           lambda e: e.num_intervals)
    _gauge(registry, "tc_intervals_per_node",
           "mean intervals per node", label, ref,
           lambda e: e.num_intervals / max(len(e), 1))
    _gauge(registry, "tc_gap_budget_remaining",
           "free postorder numbers below the current maximum "
           "(-1: unlimited under fractional numbering)", label, ref,
           lambda e: e.gap_budget_remaining)
    _gauge(registry, "tc_renumber_total",
           "full renumbering passes performed", label, ref,
           lambda e: e.renumber_count)


def _register_frozen_gauges(registry: MetricsRegistry, engine,
                            label: str) -> None:
    ref = weakref.ref(engine)
    _gauge(registry, "tc_nodes", "indexed nodes", label, ref, len)
    _gauge(registry, "tc_intervals_total",
           "total stored intervals (Section 5 space metric)", label, ref,
           lambda e: e.num_intervals)
    _gauge(registry, "tc_intervals_per_node",
           "mean intervals per node", label, ref,
           lambda e: e.num_intervals / max(len(e), 1))
    _gauge(registry, "tc_frozen_nbytes", "flat-buffer footprint in bytes",
           label, ref, lambda e: e.nbytes)


def _register_hybrid_gauges(registry: MetricsRegistry, engine,
                            label: str) -> None:
    ref = weakref.ref(engine)
    _gauge(registry, "tc_nodes", "indexed nodes", label, ref, len)
    _gauge(registry, "tc_hybrid_delta_arcs",
           "arcs in the delta overlay", label, ref, lambda e: e.delta_size)
    _gauge(registry, "tc_hybrid_delta_nodes",
           "nodes added since the base snapshot", label, ref,
           lambda e: len(e.delta_nodes))
    _gauge(registry, "tc_hybrid_delta_cost",
           "accumulated mutation cost since the last compaction", label,
           ref, lambda e: e.delta_cost)
    _gauge(registry, "tc_hybrid_tainted",
           "1 when queries route to the mutable index", label, ref,
           lambda e: 1 if e.tainted else 0)
    _gauge(registry, "tc_hybrid_compactions_total",
           "delta folds into a fresh base", label, ref,
           lambda e: e.compactions)


def attach(engine, *, metrics: Optional[MetricsRegistry] = None,
           tracer=None):
    """Wire a registry and/or tracer into an engine instance.

    Recurses into composite engines so the whole stack reports under one
    registry: a hybrid's write-through index and pinned base, a durable
    store's inner engine and WAL writer.  A disabled registry counts as
    no registry at all (the truly-zero-overhead path).  Health gauges
    hold weak references — a collected engine reads as 0, never keeps
    the object alive, and never breaks a scrape.

    Gauge names are keyed by engine *class*: attaching two instances of
    the same class to one registry leaves the later instance owning the
    health gauges (op counters and histograms still aggregate).

    Returns ``engine``.
    """
    from repro.core.frozen import FrozenTCIndex
    from repro.core.hybrid import HybridTCIndex
    from repro.core.index import IntervalTCIndex

    registry = metrics
    if registry is not None and not registry.enabled:
        registry = None
    label = type(engine).__name__
    engine._obs = (EngineInstruments(registry, label)
                   if registry is not None else None)
    engine._tracer = tracer

    if isinstance(engine, HybridTCIndex):
        attach(engine.index, metrics=registry, tracer=tracer)
        attach(engine.base, metrics=registry, tracer=tracer)
        if registry is not None:
            _register_hybrid_gauges(registry, engine, label)
        return engine
    if isinstance(engine, IntervalTCIndex):
        if registry is not None:
            _register_interval_gauges(registry, engine, label)
        return engine
    if isinstance(engine, FrozenTCIndex):
        if registry is not None:
            _register_frozen_gauges(registry, engine, label)
        return engine

    # Self-registering engines (chain, future families) own
    # their gauge vocabulary — no per-class knowledge needed here.
    register = getattr(engine, "_register_gauges", None)
    if register is not None:
        if registry is not None:
            register(registry, label)
        return engine

    from repro.durability.store import DurableTCIndex
    if isinstance(engine, DurableTCIndex):
        engine._attach_observability(registry, tracer)
    return engine
