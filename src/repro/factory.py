"""`open_index` — the front door to every query engine.

One call replaces the four historical loaders: it dispatches on what
``source`` *is* (a graph, an edge-list file, a saved index document, a
durable store directory) and on which ``engine`` the caller wants, then
wires observability into whatever it built.

Dispatch matrix (rows: what ``source`` holds; columns: ``engine=``):

===============  ==========  ==========  ==========  ==========  ================
source           ``auto``    ``interval``  ``frozen``  ``hybrid``  ``chain``
===============  ==========  ==========  ==========  ==========  ================
graph/edge list  *stats* [1] build       direct build  build+wrap  label build
mutable doc      interval    load        load+freeze   load+wrap   build from graph
frozen doc       frozen      error       load          error       error
hybrid doc       hybrid      inner idx   inner+freeze  load        build from graph
store directory  durable (inner engine per the store's config)
===============  ==========  ==========  ==========  ==========  ================

[1] For graph and edge-list sources ``engine="auto"`` consults
:func:`repro.recommend_engine` over :func:`repro.graph_stats` — the
measured decision rule from ``BENCH_engines.json`` — unless build
keyword arguments (``policy=``, ``numbering=``, ...) are present, which
pin the interval family.  Saved documents always follow their own kind.

Coercion is capability-driven (:meth:`TCEngine.capabilities`), not
``isinstance``: compiled snapshots (``is_frozen_snapshot``) carry no
graph or tree cover, so asking them for any other engine raises
:class:`~repro.errors.ReproError` rather than silently rebuilding;
members of the mutable family re-derive anything from their graph.

Typical use::

    from repro import open_index
    from repro.obs import MetricsRegistry

    engine = open_index("closure.json")                  # follows the file
    frozen = open_index(graph, engine="frozen")          # build + compile
    labels = open_index(graph, engine="chain")           # chain cover
    store = open_index("store/", durable=True)           # crash-safe
    registry = MetricsRegistry()
    engine = open_index("closure.json", metrics=registry)
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional

from repro.core.frozen import FrozenTCIndex
from repro.core.hybrid import HybridTCIndex
from repro.core.index import DEFAULT_GAP, IntervalTCIndex
from repro.core.propagation import check_propagation
from repro.errors import ReproError
from repro.graph.digraph import DiGraph

__all__ = ["open_index", "ENGINES", "GRAPH_ENGINE_BUILDERS"]

#: Accepted ``engine=`` values (``"dict"`` is the CLI's historical alias
#: for ``"interval"``).
ENGINES = ("auto", "interval", "dict", "frozen", "hybrid", "chain")

#: The config file that marks a directory as a durable store.
_STORE_CONFIG = "store.json"

#: How a compiled snapshot describes its payload in coercion errors.
_SNAPSHOT_PAYLOAD = {"frozen": "frozen buffers"}


def _build_interval(graph, *, gap, **kwargs):
    return IntervalTCIndex.build(graph, gap=gap, **kwargs)


#: Build options that configure inserts, which a snapshot never takes.
_UPDATE_ONLY_OPTIONS = frozenset(
    {"numbering", "auto_renumber", "renumber_strategy"})


def _build_frozen(graph, *, gap, merge=False, **kwargs):
    # ``merge`` only joins touching intervals, which freeze coalesces.
    update_only = _UPDATE_ONLY_OPTIONS.intersection(kwargs)
    if update_only:
        raise ReproError(
            f"{', '.join(sorted(update_only))} configure inserts, which a "
            "frozen snapshot never takes; build engine='interval' or "
            "'hybrid' to use them")
    return FrozenTCIndex.from_graph(graph, gap=gap, **kwargs)


def _build_hybrid(graph, *, gap, **kwargs):
    return HybridTCIndex.from_index(
        IntervalTCIndex.build(graph, gap=gap, **kwargs))


def _build_chain(graph, *, gap, **kwargs):
    from repro.core.chain_cover import ChainCoverIndex
    return ChainCoverIndex.build(graph, **kwargs)


#: Engine-name -> from-graph builder.  The conformance suite
#: parameterizes over this registry, so registering an engine here is
#: what enlists it in the protocol battery — and *not* registering a
#: name listed in :data:`ENGINES` fails the registry-coverage test.
GRAPH_ENGINE_BUILDERS = {
    "interval": _build_interval,
    "frozen": _build_frozen,
    "hybrid": _build_hybrid,
    "chain": _build_chain,
}


def _normalise_engine(engine: str) -> str:
    if engine == "dict":
        return "interval"
    if engine is None:
        return "auto"
    if engine not in ENGINES:
        raise ReproError(
            f"unknown engine {engine!r}; choose from {ENGINES}")
    return engine


def _choose_engine(graph, kwargs) -> str:
    """Resolve ``engine="auto"`` for a graph source via cheap statistics.

    Build keyword arguments (``policy=``, ``numbering=``, ...) only make
    sense for the interval family, so their presence pins it.
    """
    if kwargs:
        return "interval"
    from repro.core.select import graph_stats, recommend_engine
    return recommend_engine(graph_stats(graph))


def _build_from_graph(graph, engine: str, *, gap, **kwargs):
    if engine == "auto":
        engine = _choose_engine(graph, kwargs)
    return GRAPH_ENGINE_BUILDERS[engine](graph, gap=gap, **kwargs)


def _coerce(loaded, engine: str, *, origin: str):
    """Turn whatever was loaded into the requested engine.

    Dispatch is on :meth:`TCEngine.capabilities`: an engine whose
    ``kind`` already matches (or ``engine="auto"``) passes through; a
    compiled snapshot refuses every other coercion; the mutable family
    (an interval index, or a hybrid wrapping one) freezes, wraps, or
    compiles labels from the graph it carries.
    """
    caps = loaded.capabilities()
    if engine == "auto" or engine == caps.kind:
        return loaded
    if caps.is_frozen_snapshot:
        payload = _SNAPSHOT_PAYLOAD.get(caps.kind, f"{caps.kind} artefacts")
        raise ReproError(
            f"{origin} holds {payload} and cannot serve the "
            f"{engine!r} engine; rebuild from the graph or a saved "
            f"mutable index")
    # The mutable family always carries the exact graph: a hybrid's
    # write-through index is the delta-corrected truth.
    index = loaded.index if hasattr(loaded, "index") else loaded
    if engine == "interval":
        return index
    if engine == "frozen":
        return index.freeze()
    if engine == "hybrid":
        return HybridTCIndex.from_index(index)
    return _build_from_graph(index.graph, engine, gap=DEFAULT_GAP)


def _is_store_directory(path: str) -> bool:
    return os.path.isdir(path) and os.path.exists(
        os.path.join(path, _STORE_CONFIG))


def open_index(source, *, engine: str = "auto",
               durable: Optional[bool] = None, metrics=None, tracer=None,
               gap: int = DEFAULT_GAP,
               **kwargs):
    """Open, load, or build a transitive-closure query engine.

    ``source`` may be a :class:`~repro.graph.digraph.DiGraph`, an
    already-constructed engine (coerced per the dispatch matrix), a path
    to a saved index document (``.json``, or a binary ``.rtcf`` frozen
    container — recognised by extension or magic and opened through
    ``mmap``), a path to an edge-list file, or a durable store
    directory.

    ``engine`` selects the representation: ``"interval"`` (updatable),
    ``"frozen"`` (compiled flat arrays), ``"hybrid"`` (frozen base +
    delta overlay) or ``"chain"`` (chain-cover labels).  ``"auto"``
    follows a saved document's kind; for graph and edge-list sources it
    picks from cheap graph statistics (:func:`repro.recommend_engine`).
    ``durable=True`` forces the crash-safe store (``None`` auto-detects
    a store directory, ``False`` forbids one).  ``metrics`` (a
    :class:`~repro.obs.metrics.MetricsRegistry`) and ``tracer`` (a
    :class:`~repro.obs.tracing.QueryTracer`) attach observability to the
    returned engine and everything nested inside it.

    Extra keyword arguments flow to the underlying constructor:
    :meth:`IntervalTCIndex.build` for graph/edge-list sources (e.g.
    ``policy``, ``numbering``), :meth:`ChainCoverIndex.build` for
    ``engine="chain"`` (``method="greedy"|"optimal"``),
    :meth:`DurableTCIndex.open` for durable stores (e.g.
    ``fsync_every``, ``create``); ``engine="frozen"`` builds through
    :meth:`FrozenTCIndex.from_graph`.  ``propagation="vectorized"`` is
    accepted and dropped, only for the benchmark harness.
    """
    from repro.obs.instrument import attach

    check_propagation(kwargs.pop("propagation", "vectorized"))
    engine = _normalise_engine(engine)

    if isinstance(source, (str, Path)):
        path = str(source)
        if durable is None:
            durable = _is_store_directory(path)
        if durable:
            from repro.durability.store import DurableTCIndex
            if engine in ("frozen", "chain"):
                raise ReproError(
                    "durable stores persist a mutable op-log; "
                    f"engine={engine!r} cannot be journalled — choose "
                    "'interval' or 'hybrid'")
            store_engine = "hybrid" if engine == "hybrid" else "interval"
            kwargs.setdefault("create", not os.path.exists(
                os.path.join(path, _STORE_CONFIG)))
            return DurableTCIndex.open(
                path, engine=store_engine, gap=gap,
                metrics=metrics, tracer=tracer, **kwargs)
        from repro.core.rtcf import sniff_rtcf
        if path.endswith((".json", ".rtcf")) or sniff_rtcf(path):
            from repro.core.serialize import _load_any
            result = _coerce(_load_any(path), engine, origin=path)
        else:
            from repro.graph.io import load_edge_list
            result = _build_from_graph(load_edge_list(path), engine,
                                       gap=gap, **kwargs)
        return attach(result, metrics=metrics, tracer=tracer)

    if durable:
        raise ReproError(
            "durable=True needs a store directory path, not "
            f"{type(source).__name__}")

    if isinstance(source, DiGraph):
        result = _build_from_graph(source, engine, gap=gap, **kwargs)
        return attach(result, metrics=metrics, tracer=tracer)

    if hasattr(source, "capabilities") and hasattr(source, "reachable"):
        result = _coerce(source, engine, origin=type(source).__name__)
        return attach(result, metrics=metrics, tracer=tracer)

    raise ReproError(
        f"cannot open {type(source).__name__!r}: expected a graph, an "
        "engine, an index/edge-list path, or a durable store directory")
