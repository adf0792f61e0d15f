"""Ground-truth closure and the cross-engine differential layer.

Every exact engine in the repository must answer reachability questions
identically.  The oracle layer provides the two halves of that check:

* :class:`SetClosureOracle` — an *independent* mirror of the graph under
  test.  It keeps its own adjacency sets (it never reads the index's
  ``DiGraph``, so a bug in the index's graph bookkeeping is caught too)
  and computes reachability by plain BFS with set closures, the style
  Jin & Wang use to validate reachability oracles.
* :data:`ENGINE_FACTORIES` — every from-scratch engine keyed by name, so
  a checkpoint can rebuild all of them from the oracle's arcs and compare
  them node by node via :func:`compare_engine`.

The oracle is deliberately slow and obvious: no intervals, no numbering,
no sharing with the code under test.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.errors import ReproError
from repro.graph.digraph import DiGraph, Node


class DifferentialMismatch(ReproError):
    """Two engines (or an engine and the oracle) disagreed on an answer."""

    def __init__(self, engine: str, message: str) -> None:
        super().__init__(f"[{engine}] {message}")
        self.engine = engine


class SetClosureOracle:
    """Set-based transitive closure over a private adjacency copy.

    Mutations mirror the index API (:meth:`add_node`, :meth:`add_arc`,
    :meth:`remove_arc`, :meth:`remove_node`); queries are reflexive like
    the paper's (:meth:`reachable`, :meth:`successors`,
    :meth:`predecessors`).  The full closure is cached and recomputed
    lazily after each mutation.
    """

    def __init__(self, arcs: Iterable[Tuple[Node, Node]] = (),
                 nodes: Iterable[Node] = ()) -> None:
        self._succ: Dict[Node, Set[Node]] = {}
        for node in nodes:
            self.add_node(node)
        for source, destination in arcs:
            self.add_arc(source, destination)
        self._closure: Optional[Dict[Node, FrozenSet[Node]]] = None

    # ------------------------------------------------------------------
    # mutations (mirror of the index API)
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        self._succ.setdefault(node, set())
        self._closure = None

    def add_arc(self, source: Node, destination: Node) -> None:
        if source == destination:
            raise ReproError("oracle rejects self-loops, like the paper")
        self.add_node(source)
        self.add_node(destination)
        self._succ[source].add(destination)
        self._closure = None

    def remove_arc(self, source: Node, destination: Node) -> None:
        self._succ[source].discard(destination)
        self._closure = None

    def remove_node(self, node: Node) -> None:
        self._succ.pop(node, None)
        for successors in self._succ.values():
            successors.discard(node)
        self._closure = None

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    def nodes(self) -> List[Node]:
        return list(self._succ)

    def arcs(self) -> List[Tuple[Node, Node]]:
        return [(source, destination) for source, targets in self._succ.items()
                for destination in targets]

    def has_arc(self, source: Node, destination: Node) -> bool:
        return source in self._succ and destination in self._succ[source]

    def out_degree(self, node: Node) -> int:
        return len(self._succ[node])

    def as_digraph(self) -> DiGraph:
        """A fresh :class:`DiGraph` copy for rebuilding engines."""
        return DiGraph(arcs=self.arcs(), nodes=self.nodes())

    # ------------------------------------------------------------------
    # queries (reflexive, like the paper's convention)
    # ------------------------------------------------------------------
    def closure(self) -> Dict[Node, FrozenSet[Node]]:
        """``node -> frozenset(reachable nodes)``, including the node itself."""
        if self._closure is None:
            self._closure = {node: frozenset(self._bfs(node))
                             for node in self._succ}
        return self._closure

    def _bfs(self, start: Node) -> Set[Node]:
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for successor in self._succ[node]:
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)
        return seen

    def reachable(self, source: Node, destination: Node) -> bool:
        return destination in self.closure()[source]

    def successors(self, source: Node) -> FrozenSet[Node]:
        return self.closure()[source]

    def predecessors(self, destination: Node) -> Set[Node]:
        return {node for node, reach in self.closure().items()
                if destination in reach}


# ----------------------------------------------------------------------
# engine registry
# ----------------------------------------------------------------------
def _build_interval(graph: DiGraph):
    from repro.core.index import IntervalTCIndex
    return IntervalTCIndex.build(graph, gap=1)


def _build_interval_merged(graph: DiGraph):
    from repro.core.index import IntervalTCIndex
    return IntervalTCIndex.build(graph, gap=4, merge=True)


def _build_frozen(graph: DiGraph):
    from repro.core.index import IntervalTCIndex
    return IntervalTCIndex.build(graph).freeze()


def _build_full(graph: DiGraph):
    from repro.baselines import FullTCIndex
    return FullTCIndex.build(graph)


def _build_bitmatrix(graph: DiGraph):
    from repro.baselines import BitMatrixTCIndex
    return BitMatrixTCIndex.build(graph)


def _build_pointer(graph: DiGraph):
    from repro.baselines import PointerChasingIndex
    return PointerChasingIndex.build(graph)


def _build_inverse(graph: DiGraph):
    from repro.baselines import InverseTCIndex
    return InverseTCIndex.build(graph)


def _build_chain(graph: DiGraph):
    from repro.baselines import ChainTCIndex
    return ChainTCIndex.build(graph, "greedy")


def _build_condensed(graph: DiGraph):
    from repro.core.condensation import CondensedIndex
    return CondensedIndex.build(graph)


def _build_durable(graph: DiGraph):
    """A durable store compared *after a real close/reopen cycle*.

    Feeds the graph through journalled mutations (nodes in topological
    order, each with its full predecessor set as parents), closes the
    store, and reopens it — so the comparison exercises WAL replay and
    recovery, not just the in-memory engine.  The store keeps its
    backing temp directory alive for as long as it is referenced.
    """
    import tempfile
    from repro.durability import DurableTCIndex
    from repro.graph.traversal import topological_order
    guard = tempfile.TemporaryDirectory(prefix="durable-engine-")
    with DurableTCIndex.open(guard.name) as store:
        for node in topological_order(graph):
            store.add_node(node, sorted(graph.predecessors(node), key=repr))
    reopened = DurableTCIndex.open(guard.name)
    reopened._tempdir_guard = guard
    return reopened


def _build_hybrid_delta(graph: DiGraph):
    """A hybrid engine compared *while its delta overlay is live*.

    Builds the frozen base from the graph minus a deterministic slice of
    withheld arcs, then adds those arcs back through the hybrid — so the
    comparison exercises the overlay correction path, not just a freshly
    compacted snapshot.  Thresholds are pushed out of reach to keep the
    delta from folding before the check.
    """
    from repro.core.hybrid import HybridTCIndex
    arcs = sorted(graph.arcs(), key=repr)
    withheld_count = min(8, len(arcs) // 4)
    kept = arcs[:len(arcs) - withheld_count] if withheld_count else arcs
    withheld = arcs[len(arcs) - withheld_count:] if withheld_count else []
    base_graph = DiGraph(arcs=kept, nodes=list(graph.nodes()))
    hybrid = HybridTCIndex.build(base_graph, max_delta=1_000_000,
                                 max_ratio=1_000_000.0)
    for source, destination in withheld:
        hybrid.add_arc(source, destination)
    return hybrid


def build_reference_index(graph: DiGraph, *, gap: int = 1,
                          policy: str = "alg1"):
    """An index labelled by the paper's sequential propagation pass.

    Tree cover, postorder numbering, then
    :func:`~repro.core.labeling.propagate_intervals` — the reference
    every build's kernel must equal, table for table.
    """
    from repro.core.index import IntervalTCIndex, build_cover
    from repro.core.labeling import assign_postorder, propagate_intervals
    cover = build_cover(graph, policy)
    labeling = assign_postorder(cover, gap)
    propagate_intervals(graph, cover, labeling)
    return IntervalTCIndex(graph, cover, labeling, policy=policy)


def _mapped(frozen):
    """``frozen`` written to a temp RTCF file and reopened through
    ``mmap`` with full checksum verification.  The backing temp
    directory stays alive as long as the view is referenced."""
    import os
    import tempfile
    from repro.core.rtcf import load_rtcf, save_rtcf
    guard = tempfile.TemporaryDirectory(prefix="rtcf-engine-")
    path = os.path.join(guard.name, "engine.rtcf")
    save_rtcf(frozen, path)
    mapped = load_rtcf(path, verify=True)
    mapped._tempdir_guard = guard
    return mapped


def _build_rtcf(graph: DiGraph):
    """A frozen engine compared after a real save/mmap-load cycle.

    Freezes a fresh build and reopens its RTCF container — so the
    comparison exercises the binary writer, the structural validator,
    and the zero-copy mapped view, not just the in-memory freeze.
    """
    from repro.core.index import IntervalTCIndex
    return _mapped(IntervalTCIndex.build(graph).freeze())


def _build_frozen_direct(graph: DiGraph):
    """A frozen engine built by the direct route, after a save/mmap-load.

    ``open_index(engine="frozen")`` skips the mutable index and
    propagates in rank space; the RTCF round trip puts the route's
    buffers through the same writer and mapped view as the ``rtcf``
    engine.
    """
    from repro.factory import open_index
    return _mapped(open_index(graph, engine="frozen"))


def _build_server(graph: DiGraph):
    """A hybrid engine compared *through a live in-process server*.

    Spins up a background-thread :class:`ReachabilityServer` over a
    fresh hybrid build and answers every oracle comparison with real
    protocol round trips — framing, dispatch, the batch coalescer, and
    JSON encode/decode are all inside the differential loop.  The
    server thread is torn down when the engine is garbage collected
    (checkpoint engines are short-lived), and is a daemon either way.
    """
    import weakref
    from repro.core.hybrid import HybridTCIndex
    from repro.server.inprocess import ServerBackedEngine, ServerThread
    thread = ServerThread(lambda: HybridTCIndex.build(graph))
    engine = ServerBackedEngine(thread)
    weakref.finalize(engine, thread.close)
    return engine


def _build_server_chaos(graph: DiGraph):
    """The ``server`` engine with a seeded chaos proxy on the wire.

    Every comparison round trip crosses a :class:`ChaosProxy` injecting
    latency, split frames, stalls, mid-frame resets, and dropped
    connections; the client rides per-call timeouts plus seeded
    retry-with-reconnect.  The comparison only ever issues *reads*
    (successors/predecessors/reachable), so chaos retries can never
    double-apply anything — and every answer that survives the wire
    must still match the oracle exactly, which is the point: faults may
    cost time, never correctness.
    """
    import weakref
    from repro.core.hybrid import HybridTCIndex
    from repro.server.client import RetryPolicy
    from repro.server.inprocess import ServerBackedEngine, ServerThread
    from repro.testing.netchaos import ChaosConfig, ChaosProxy
    config = ChaosConfig(seed=1729, latency_ms=(0.0, 1.5),
                         partial_write_prob=0.25, partial_write_max=48,
                         stall_prob=0.02, stall_ms=(5.0, 20.0),
                         reset_prob=0.02, drop_prob=0.05)

    def proxy_factory(host, port):
        return ChaosProxy.create(host, port, config)

    import random as _random
    thread = ServerThread(
        lambda: HybridTCIndex.build(graph),
        proxy_factory=proxy_factory,
        client_kwargs={
            "call_timeout": 5.0,
            "retry": RetryPolicy(attempts=12, base_delay=0.01,
                                 max_delay=0.2,
                                 rng=_random.Random(1729)),
        })
    engine = ServerBackedEngine(thread)
    weakref.finalize(engine, thread.close)
    return engine


def _build_cluster(graph: DiGraph):
    """A hybrid engine compared *through a preforked worker cluster*.

    The heavyweight sibling of ``server``: every answer round-trips a
    real socket into one of two forked worker processes serving an
    mmap'd RTCF generation, with writes forwarded to the writer process
    and acked only once the covering generation is visible.  Forks per
    checkpoint, so keep it out of the default matrix; opt in with
    ``--engines cluster``.
    """
    import weakref
    from repro.core.hybrid import HybridTCIndex
    from repro.server.inprocess import ClusterThread, ServerBackedEngine
    thread = ClusterThread(lambda: HybridTCIndex.build(graph), workers=2,
                           poll_interval=0.01)
    engine = ServerBackedEngine(thread)
    weakref.finalize(engine, thread.close)
    return engine


#: From-scratch engine builders, keyed by the names the CLI accepts.
ENGINE_FACTORIES: Dict[str, Callable[[DiGraph], object]] = {
    "rebuild": _build_interval,
    "rebuild-merged": _build_interval_merged,
    "rebuild-reference": build_reference_index,
    "rebuild-frozen": _build_frozen,
    "rebuild-frozen-direct": _build_frozen_direct,
    "rtcf": _build_rtcf,
    "full": _build_full,
    "bitmatrix": _build_bitmatrix,
    "pointer": _build_pointer,
    "inverse": _build_inverse,
    "chain": _build_chain,
    "condensed": _build_condensed,
    "hybrid-delta": _build_hybrid_delta,
    "durable": _build_durable,
    "server": _build_server,
    "server-chaos": _build_server_chaos,
    "cluster": _build_cluster,
}

#: Shorthand accepted by ``--engines``: expands to every baseline engine.
BASELINE_GROUP = ("full", "bitmatrix", "pointer", "inverse", "chain",
                  "condensed")


def build_engines(oracle: SetClosureOracle,
                  names: Iterable[str]) -> Dict[str, object]:
    """Rebuild the named engines from the oracle's current arc set."""
    engines: Dict[str, object] = {}
    for name in names:
        try:
            factory = ENGINE_FACTORIES[name]
        except KeyError:
            raise ReproError(
                f"unknown engine {name!r}; known: {sorted(ENGINE_FACTORIES)}"
            ) from None
        engines[name] = factory(oracle.as_digraph())
    return engines


def compare_engine(name: str, engine, oracle: SetClosureOracle, *,
                   predecessors: bool = False) -> int:
    """Check one engine against the oracle on every node; return checks run.

    Compares the full successor set of every node (which subsumes every
    pairwise ``reachable`` answer) and, when ``predecessors`` is set, the
    full predecessor set too.  Engines that only answer ``reachable``
    (the inverse-closure baseline) are checked pairwise instead.  Raises
    :class:`DifferentialMismatch` on the first disagreement.
    """
    checks = 0
    if not hasattr(engine, "successors"):
        return _compare_pairwise(name, engine, oracle)
    for node in oracle.nodes():
        expected = set(oracle.successors(node))
        answer = set(engine.successors(node))
        checks += 1
        if answer != expected:
            raise DifferentialMismatch(
                name,
                f"successors({node!r}) wrong: "
                f"missing={sorted(map(repr, expected - answer))} "
                f"extra={sorted(map(repr, answer - expected))}")
        if predecessors:
            expected_pred = oracle.predecessors(node)
            answer_pred = set(engine.predecessors(node))
            checks += 1
            if answer_pred != expected_pred:
                raise DifferentialMismatch(
                    name,
                    f"predecessors({node!r}) wrong: "
                    f"missing={sorted(map(repr, expected_pred - answer_pred))} "
                    f"extra={sorted(map(repr, answer_pred - expected_pred))}")
    return checks


def _compare_pairwise(name: str, engine, oracle: SetClosureOracle) -> int:
    checks = 0
    nodes = oracle.nodes()
    for source in nodes:
        reach = oracle.successors(source)
        for destination in nodes:
            checks += 1
            answer = engine.reachable(source, destination)
            if answer != (destination in reach):
                raise DifferentialMismatch(
                    name,
                    f"reachable({source!r}, {destination!r}) = {answer}, "
                    f"oracle says {destination in reach}")
    return checks
