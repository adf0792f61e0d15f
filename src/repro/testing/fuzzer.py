"""Seeded, replayable operation fuzzing over the interval-index lifecycle.

A fuzz run is a **trace**: a seed DAG (drawn from a registered workload
family) plus a list of concrete operations — node/arc insertions and
deletions, interval merging, renumbering, freeze/query interleavings.
Traces are plain data (:class:`Trace`), serialise to JSON, and replay
deterministically, which is what makes shrinking and crash files work.

:class:`FuzzRunner` executes a trace step by step against the live
:class:`~repro.core.index.IntervalTCIndex` while mirroring every
mutation into an independent :class:`~repro.testing.oracle.SetClosureOracle`.
After each step it:

* audits the paper-level structural invariants
  (:func:`repro.testing.invariants.audit_index`) every ``audit_every``
  applied operations;
* asserts that any live frozen view was staled by the mutation and
  refuses to answer (the freeze-contract check);
* on ``query`` ops, compares the index (and any fresh frozen view, and
  the live hybrid mirror) against the oracle;
* on ``freeze`` ops, compiles a frozen view and compares its full
  successor/predecessor answers against the oracle;
* mirrors every node/arc mutation into a live
  :class:`~repro.core.hybrid.HybridTCIndex` with a deliberately tiny
  compaction threshold, so freeze→mutate→query→compact interleavings
  are exercised organically; ``compact`` ops fold its delta on demand;
* every ``check_every`` applied operations (and once at the end), runs
  the full differential matrix: the live index, a fresh frozen
  compilation and its RTCF save/mmap round trip (so fractional and
  renumbered numberings reach the binary writer), the hybrid mirror, a
  from-scratch rebuild, and every requested baseline engine, all
  rebuilt from the oracle's private arc set; every engine that answers
  ``predecessors`` has its predecessor sets compared too.

Any discrepancy raises :class:`TraceFailure` carrying the exact trace
prefix that reproduces it — feed that to
:func:`repro.testing.shrink.shrink_trace` and
:func:`repro.testing.crash.save_crash`.

:func:`fuzz` generates and executes a trace in one pass from a single
``random.Random`` seed; operations are recorded *concretely* (actual
node labels), so replay needs no randomness at all.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.index import IntervalTCIndex
from repro.errors import IndexStateError, ReproError
from repro.graph.digraph import DiGraph
from repro.testing.invariants import InvariantViolation, audit_index
from repro.testing.oracle import (
    BASELINE_GROUP,
    ENGINE_FACTORIES,
    DifferentialMismatch,
    SetClosureOracle,
    _mapped,
    build_engines,
    compare_engine,
)

#: Operation kinds that mutate the index (and must stale frozen views).
MUTATING_KINDS = frozenset(
    {"add_node", "add_arc", "remove_arc", "remove_node", "merge", "renumber"})

#: Every op kind a trace may contain.  ``compact`` folds the live hybrid
#: mirror's delta overlay — a no-op at the query level, so not mutating.
OP_KINDS = MUTATING_KINDS | {"freeze", "query", "compact"}

#: Default differential matrix: frozen + live hybrid mirror + rebuilds +
#: every baseline, the chain-cover label engine included
#: (``hybrid-delta`` rebuilds with a live overlay).
DEFAULT_ENGINES: Tuple[str, ...] = ("frozen", "hybrid", "rebuild",
                                    "rebuild-merged", "rebuild-reference",
                                    "rebuild-frozen-direct", "rtcf",
                                    "baselines", "hybrid-delta")

#: Compaction threshold of the live hybrid mirror: small enough that a
#: fuzz run crosses it many times, so freeze→mutate→query→compact
#: interleavings happen organically.
HYBRID_MIRROR_MAX_DELTA = 12


def expand_engines(
        names: Sequence[str]) -> Tuple[Tuple[str, ...], bool, bool]:
    """Resolve engine names to (rebuild names, check_frozen, check_hybrid).

    ``"baselines"`` expands to every baseline engine, ``"all"`` to the
    whole registry; ``"interval"`` (the live index) is always implied and
    accepted for symmetry; ``"frozen"`` turns on the frozen-view checks
    and ``"hybrid"`` the live delta-overlay mirror.
    """
    rebuilds: List[str] = []
    check_frozen = False
    check_hybrid = False
    for name in names:
        if name == "interval":
            continue
        if name == "frozen":
            check_frozen = True
        elif name == "hybrid":
            check_hybrid = True
        elif name == "baselines":
            rebuilds.extend(group for group in BASELINE_GROUP
                            if group not in rebuilds)
        elif name == "all":
            check_frozen = True
            check_hybrid = True
            rebuilds.extend(group for group in ENGINE_FACTORIES
                            if group not in rebuilds)
        elif name in ENGINE_FACTORIES:
            if name not in rebuilds:
                rebuilds.append(name)
        else:
            raise ReproError(
                f"unknown engine {name!r}; known: interval, frozen, hybrid, "
                f"baselines, all, {sorted(ENGINE_FACTORIES)}")
    return tuple(rebuilds), check_frozen, check_hybrid


@dataclass
class Trace:
    """A replayable fuzz input: seed graph, settings, concrete operations."""

    seed: Optional[int]
    gap: int
    numbering: str
    seed_nodes: List[int]
    seed_arcs: List[Tuple[int, int]]
    ops: List[list] = field(default_factory=list)
    fault: Optional[str] = None
    note: str = ""

    FORMAT = 1

    def to_dict(self) -> dict:
        return {
            "format": self.FORMAT,
            "seed": self.seed,
            "gap": self.gap,
            "numbering": self.numbering,
            "fault": self.fault,
            "note": self.note,
            "seed_nodes": list(self.seed_nodes),
            "seed_arcs": [list(arc) for arc in self.seed_arcs],
            "ops": [list(op) for op in self.ops],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Trace":
        if data.get("format") != cls.FORMAT:
            raise ReproError(
                f"unsupported trace format {data.get('format')!r}")
        return cls(
            seed=data.get("seed"),
            gap=int(data["gap"]),
            numbering=data.get("numbering", "integer"),
            seed_nodes=list(data["seed_nodes"]),
            seed_arcs=[(arc[0], arc[1]) for arc in data["seed_arcs"]],
            ops=[list(op) for op in data["ops"]],
            fault=data.get("fault"),
            note=data.get("note", ""),
        )

    def prefix(self, length: int) -> "Trace":
        """A copy keeping only the first ``length`` operations."""
        return Trace(seed=self.seed, gap=self.gap, numbering=self.numbering,
                     seed_nodes=list(self.seed_nodes),
                     seed_arcs=list(self.seed_arcs),
                     ops=[list(op) for op in self.ops[:length]],
                     fault=self.fault, note=self.note)

    def referenced_nodes(self) -> set:
        """Every node label mentioned by an arc or an operation."""
        mentioned = set()
        for source, destination in self.seed_arcs:
            mentioned.add(source)
            mentioned.add(destination)
        for op in self.ops:
            kind = op[0]
            if kind == "add_node":
                mentioned.add(op[1])
                mentioned.update(op[2])
            elif kind in ("add_arc", "remove_arc", "query"):
                mentioned.add(op[1])
                mentioned.add(op[2])
            elif kind == "remove_node":
                mentioned.add(op[1])
        return mentioned


class TraceFailure(ReproError):
    """A trace step violated an invariant or a differential check.

    Carries the reproducing :attr:`trace` prefix (everything up to and
    including the failing op), the failing :attr:`step` index and
    :attr:`op`, and the underlying :attr:`cause`.
    """

    def __init__(self, trace: Trace, step: int, op: Optional[list],
                 cause: BaseException) -> None:
        self.trace = trace
        self.step = step
        self.op = op
        self.cause = cause
        if op is not None:
            where = f"op {step} {op!r}"
        elif step < 0:
            where = "seed build"
        else:
            where = "final check"
        super().__init__(f"{where}: [{type(cause).__name__}] {cause}")


class StalenessViolation(ReproError):
    """A mutation failed to stale (or a stale view failed to refuse)."""


@dataclass
class FuzzReport:
    """Counters summarising one completed (violation-free) run."""

    ops: int = 0
    applied: int = 0
    skipped: int = 0
    audits: int = 0
    audit_checks: int = 0
    differential_checks: int = 0
    freezes: int = 0
    compactions: int = 0
    queries: int = 0
    final_nodes: int = 0
    final_arcs: int = 0
    engines: str = ""
    violations: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class FuzzRunner:
    """Execute one :class:`Trace` under audits and differential checks."""

    def __init__(self, trace: Trace, *,
                 engines: Sequence[str] = DEFAULT_ENGINES,
                 audit_every: int = 1, check_every: int = 50) -> None:
        self.trace = trace
        self.rebuild_names, self.check_frozen, self.check_hybrid = \
            expand_engines(engines)
        self.audit_every = audit_every
        self.check_every = check_every
        live = ["interval"]
        if self.check_frozen:
            live.append("frozen")
        if self.check_hybrid:
            live.append("hybrid")
        self.report = FuzzReport(engines=",".join(
            live + list(self.rebuild_names)))
        self.index: Optional[IntervalTCIndex] = None
        self.oracle: Optional[SetClosureOracle] = None
        self.frozen = None
        self.hybrid = None
        self._step = -1

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Build the index and oracle from the trace's seed graph."""
        trace = self.trace
        graph = DiGraph(arcs=trace.seed_arcs, nodes=trace.seed_nodes)
        try:
            self.index = IntervalTCIndex.build(
                graph, gap=trace.gap, numbering=trace.numbering)
            self.oracle = SetClosureOracle(arcs=trace.seed_arcs,
                                           nodes=trace.seed_nodes)
            if self.check_hybrid:
                from repro.core.hybrid import HybridTCIndex
                self.hybrid = HybridTCIndex.build(
                    DiGraph(arcs=trace.seed_arcs, nodes=trace.seed_nodes),
                    gap=trace.gap, numbering=trace.numbering,
                    max_delta=HYBRID_MIRROR_MAX_DELTA)
            self._audit()
        except TraceFailure:
            raise
        except Exception as error:
            raise TraceFailure(trace.prefix(0), -1, None, error) from error

    def run(self) -> FuzzReport:
        """Replay the whole trace; return the report or raise TraceFailure."""
        if self.index is None:
            self.start()
        for position, op in enumerate(self.trace.ops):
            self.step(position, op)
        self.final_check()
        return self.report

    def step(self, position: int, op: list) -> bool:
        """Apply one op with all per-step checks; True when it applied."""
        self._step = position
        self.report.ops += 1
        try:
            applied = self._apply_checked(op)
        except TraceFailure:
            raise
        except Exception as error:
            raise TraceFailure(self.trace.prefix(position + 1), position, op,
                               error) from error
        if applied:
            self.report.applied += 1
        else:
            self.report.skipped += 1
        return applied

    def final_check(self) -> None:
        """Run the audit plus the full differential matrix once at the end."""
        try:
            self._audit()
            self._differential()
        except TraceFailure:
            raise
        except Exception as error:
            raise TraceFailure(self.trace.prefix(len(self.trace.ops)),
                               len(self.trace.ops), None, error) from error

    # ------------------------------------------------------------------
    # op application
    # ------------------------------------------------------------------
    def _apply_checked(self, op: list) -> bool:
        kind = op[0]
        if kind not in OP_KINDS:
            raise ReproError(f"unknown fuzz op kind {kind!r}")
        frozen_was_fresh = (self.frozen is not None
                            and not self.frozen.is_stale())
        applied = self._apply(op)
        if not applied:
            return False
        if kind in MUTATING_KINDS:
            if frozen_was_fresh:
                self._check_staled()
            if self.audit_every and \
                    self.report.applied % max(1, self.audit_every) == 0:
                self._audit()
            if self.check_every and \
                    self.report.applied % max(1, self.check_every) == 0:
                self._differential()
        return True

    def _apply(self, op: list) -> bool:
        kind = op[0]
        index, oracle = self.index, self.oracle
        if kind == "add_node":
            node, parents = op[1], list(op[2])
            if node in oracle or len(set(parents)) != len(parents) \
                    or any(parent not in oracle for parent in parents):
                return False
            index.add_node(node, parents=parents)
            oracle.add_node(node)
            for parent in parents:
                oracle.add_arc(parent, node)
            if self.hybrid is not None:
                self.hybrid.add_node(node, parents=parents)
            return True
        if kind == "add_arc":
            source, destination = op[1], op[2]
            if source not in oracle or destination not in oracle \
                    or source == destination \
                    or oracle.has_arc(source, destination) \
                    or oracle.reachable(destination, source):
                return False
            index.add_arc(source, destination)
            oracle.add_arc(source, destination)
            if self.hybrid is not None:
                self.hybrid.add_arc(source, destination)
            return True
        if kind == "remove_arc":
            source, destination = op[1], op[2]
            if not oracle.has_arc(source, destination):
                return False
            index.remove_arc(source, destination)
            oracle.remove_arc(source, destination)
            if self.hybrid is not None:
                self.hybrid.remove_arc(source, destination)
            return True
        if kind == "remove_node":
            node = op[1]
            if node not in oracle:
                return False
            index.remove_node(node)
            oracle.remove_node(node)
            if self.hybrid is not None:
                self.hybrid.remove_node(node)
            return True
        if kind == "merge":
            apply_merge(index)
            return True
        if kind == "renumber":
            index.renumber(int(op[1]))
            return True
        if kind == "freeze":
            self.frozen = index.freeze()
            self.report.freezes += 1
            if self.check_frozen:
                self.report.differential_checks += compare_engine(
                    "frozen", self.frozen, oracle, predecessors=True)
            return True
        if kind == "compact":
            if self.hybrid is None:
                return False
            self.hybrid.compact()
            self.report.compactions += 1
            return True
        if kind == "query":
            source, destination = op[1], op[2]
            if source not in oracle or destination not in oracle:
                return False
            self.report.queries += 1
            expected = oracle.reachable(source, destination)
            answer = index.reachable(source, destination)
            if answer != expected:
                raise DifferentialMismatch(
                    "interval",
                    f"reachable({source!r}, {destination!r}) = {answer}, "
                    f"oracle says {expected}")
            if self.check_frozen and self.frozen is not None \
                    and not self.frozen.is_stale():
                frozen_answer = self.frozen.reachable(source, destination)
                if frozen_answer != expected:
                    raise DifferentialMismatch(
                        "frozen",
                        f"reachable({source!r}, {destination!r}) = "
                        f"{frozen_answer}, oracle says {expected}")
            if self.hybrid is not None:
                hybrid_answer = self.hybrid.reachable(source, destination)
                if hybrid_answer != expected:
                    raise DifferentialMismatch(
                        "hybrid",
                        f"reachable({source!r}, {destination!r}) = "
                        f"{hybrid_answer}, oracle says {expected}")
            return True
        raise ReproError(f"unknown fuzz op kind {kind!r}")  # pragma: no cover

    # ------------------------------------------------------------------
    # checks
    # ------------------------------------------------------------------
    def _check_staled(self) -> None:
        """The freeze contract: every mutation stales every frozen view."""
        if not self.frozen.is_stale():
            raise StalenessViolation(
                "a mutation left a previously taken frozen view fresh: "
                "IntervalTCIndex._invalidate was not called")
        probe = next(iter(self.frozen.nodes()), None)
        if probe is None:  # pragma: no cover - empty frozen view
            return
        try:
            self.frozen.reachable(probe, probe)
        except IndexStateError:
            pass
        else:
            raise StalenessViolation(
                "a stale frozen view answered a query instead of raising "
                "IndexStateError")

    def _audit(self) -> None:
        self.report.audits += 1
        self.report.audit_checks += audit_index(self.index)

    def _differential(self) -> None:
        oracle = self.oracle
        self.report.differential_checks += compare_engine(
            "interval", self.index, oracle, predecessors=True)
        if self.check_frozen:
            fresh = self.index.freeze()
            self.report.differential_checks += compare_engine(
                "frozen", fresh, oracle, predecessors=True)
            self.report.differential_checks += compare_engine(
                "frozen-rtcf", _mapped(fresh), oracle, predecessors=True)
        if self.hybrid is not None:
            self.report.differential_checks += compare_engine(
                "hybrid", self.hybrid, oracle, predecessors=True)
        for name, engine in build_engines(oracle, self.rebuild_names).items():
            self.report.differential_checks += compare_engine(
                name, engine, oracle,
                predecessors=hasattr(engine, "predecessors"))
        self.report.final_nodes = len(oracle)
        self.report.final_arcs = len(oracle.arcs())


def apply_merge(index: IntervalTCIndex) -> None:
    """The 'interval merging' fuzz op: Section 3.2's optional coalescing.

    Applies :meth:`IntervalSet.merged` to every node's set and marks the
    index merged so later recomputations keep merging.  A mutation for
    staleness purposes: merged labels are a different representation, so
    frozen views must not survive it.
    """
    index.merge_intervals()


# ----------------------------------------------------------------------
# trace generation
# ----------------------------------------------------------------------
def _propose(rng: random.Random, runner: FuzzRunner, next_label: List[int],
             size_band: Tuple[int, int]) -> list:
    """Draw one concrete, currently-applicable operation."""
    oracle = runner.oracle
    nodes = sorted(oracle.nodes())
    if not nodes:
        label = next_label[0]
        next_label[0] += 1
        return ["add_node", label, []]
    low, high = size_band
    population = len(nodes)
    weights = {
        "add_node": 4 if population > high else 18,
        "add_arc": 16,
        "remove_tree_arc": 5,
        "remove_non_tree_arc": 6,
        "remove_node": 16 if population > high else (2 if population <= low
                                                     else 6),
        # Merging is refused under fractional numbering.
        "merge": 0 if runner.index.numbering == "fractional" else 3,
        "renumber": 2,
        "freeze": 7,
        "compact": 3,
        "query": 24,
    }
    kinds = list(weights)
    kind = rng.choices(kinds, weights=[weights[k] for k in kinds], k=1)[0]

    if kind == "add_node":
        budget = min(len(nodes), rng.choice((0, 1, 1, 1, 2, 2, 3)))
        parents = rng.sample(nodes, budget) if budget else []
        label = next_label[0]
        next_label[0] += 1
        return ["add_node", label, parents]
    if kind == "add_arc":
        for _ in range(10):
            source, destination = rng.sample(nodes, 2) if len(nodes) > 1 \
                else (nodes[0], nodes[0])
            if source == destination or oracle.has_arc(source, destination) \
                    or oracle.reachable(destination, source):
                continue
            return ["add_arc", source, destination]
        kind = "query"  # saturated graph: fall through to a query
    if kind in ("remove_tree_arc", "remove_non_tree_arc"):
        arcs = sorted(oracle.arcs())
        wanted_tree = kind == "remove_tree_arc"
        candidates = [arc for arc in arcs
                      if runner.index.cover.is_tree_arc(*arc) == wanted_tree]
        pool = candidates or arcs
        if pool:
            source, destination = rng.choice(pool)
            return ["remove_arc", source, destination]
        kind = "query"  # no arcs left to delete
    if kind == "remove_node":
        return ["remove_node", rng.choice(nodes)]
    if kind == "merge":
        return ["merge"]
    if kind == "renumber":
        # Fractional numbering refuses a gap below 2.
        low_gap = 2 if runner.index.numbering == "fractional" else 1
        return ["renumber", rng.randint(low_gap, 12)]
    if kind == "freeze":
        return ["freeze"]
    if kind == "compact":
        return ["compact"]
    source = rng.choice(nodes)
    destination = rng.choice(nodes)
    return ["query", source, destination]


def _seed_graph(workload: str, num_nodes: int, degree: float,
                rng: random.Random) -> Tuple[List[int], List[Tuple[int, int]]]:
    """Draw a seed DAG and relabel its nodes to dense JSON-safe integers."""
    from repro.bench.workloads import make_workload
    graph = make_workload(workload, num_nodes, degree, seed=rng)
    relabel = {node: position for position, node in enumerate(graph.nodes())}
    nodes = sorted(relabel.values())
    arcs = [(relabel[source], relabel[destination])
            for source, destination in graph.arcs()]
    return nodes, arcs


def fuzz(*, num_ops: int, seed: Optional[int] = None, num_nodes: int = 24,
         degree: float = 1.8, gap: int = 8, numbering: str = "integer",
         workload: str = "uniform", engines: Sequence[str] = DEFAULT_ENGINES,
         audit_every: int = 1, check_every: int = 50,
         fault: Optional[str] = None) -> Tuple[Trace, FuzzReport]:
    """Generate and execute ``num_ops`` operations from one seed.

    Returns the (fully recorded) trace and the report.  On a violation,
    raises :class:`TraceFailure` whose ``trace`` attribute replays the
    failure — hand it to :func:`repro.testing.shrink.shrink_trace`.

    ``fault`` installs a named bug from :mod:`repro.testing.faults` for
    the duration of the run (mutation-testing the harness itself).
    """
    from repro.testing.faults import injected_fault
    rng = random.Random(seed)
    seed_nodes, seed_arcs = _seed_graph(workload, num_nodes, degree, rng)
    trace = Trace(seed=seed, gap=gap, numbering=numbering,
                  seed_nodes=seed_nodes, seed_arcs=seed_arcs, fault=fault,
                  note=f"fuzz(workload={workload!r}, nodes={num_nodes}, "
                       f"degree={degree})")
    runner = FuzzRunner(trace, engines=engines, audit_every=audit_every,
                        check_every=check_every)
    next_label = [max(seed_nodes, default=-1) + 1]
    size_band = (max(2, num_nodes // 3), max(8, 2 * num_nodes))
    with injected_fault(fault):
        runner.start()
        for position in range(num_ops):
            op = _propose(rng, runner, next_label, size_band)
            trace.ops.append(op)
            runner.step(position, op)
        runner.final_check()
    return trace, runner.report


def replay(trace: Trace, *, engines: Sequence[str] = DEFAULT_ENGINES,
           audit_every: int = 1, check_every: int = 50) -> FuzzReport:
    """Re-execute a recorded trace (with its fault, if any) from scratch."""
    from repro.testing.faults import injected_fault
    runner = FuzzRunner(trace, engines=engines, audit_every=audit_every,
                        check_every=check_every)
    with injected_fault(trace.fault):
        return runner.run()
