"""Engine-wide observability: metrics, query tracing, health stats.

Dependency-free.  Four pieces:

* :mod:`repro.obs.metrics` — counters, gauges, fixed-bucket histograms
  under a :class:`MetricsRegistry` with snapshot/delta semantics;
* :mod:`repro.obs.tracing` — :class:`QueryTracer` span trees with
  ring-buffer retention;
* :mod:`repro.obs.instrument` — the one seam (:func:`attach`,
  :func:`instrumented`) wiring both into every engine: the interval,
  frozen (and mmap'd RTCF), hybrid, chain-cover and durable engines.
  The query methods that :class:`~repro.core.engine.EngineBase` derives
  (``iter_successors``, ``count_successors``, the ``*_many`` forms and
  the set semijoins) are instrumented there once, so an engine that
  inherits them reports them like its own;
* :mod:`repro.obs.export` — human table, JSON, Prometheus text.

Typical use::

    from repro import open_index
    from repro.obs import MetricsRegistry, QueryTracer, render_table

    registry = MetricsRegistry()
    tracer = QueryTracer()
    engine = open_index("closure.json", metrics=registry, tracer=tracer)
    engine.reachable("a", "b")
    print(render_table(registry))
    print(tracer.as_dicts(last=1))
"""

from repro.obs.export import render_json, render_prometheus, render_table
from repro.obs.instrument import (EngineInstruments, WalInstruments, attach,
                                  instrumented)
from repro.obs.metrics import (DEFAULT_LATENCY_BUCKETS, DEFAULT_SIZE_BUCKETS,
                               NULL_REGISTRY, Counter, Gauge, Histogram,
                               MetricsRegistry, delta)
from repro.obs.tracing import QueryTracer, Span, format_trace

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "EngineInstruments",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "QueryTracer",
    "Span",
    "WalInstruments",
    "attach",
    "delta",
    "format_trace",
    "instrumented",
    "render_json",
    "render_prometheus",
    "render_table",
]
