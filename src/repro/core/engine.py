"""The shared query-engine protocol, and the base class that derives it.

Five engines answer the same reachability questions with different
trade-offs: :class:`~repro.core.index.IntervalTCIndex` (updatable,
Section 4 algorithms), :class:`~repro.core.frozen.FrozenTCIndex`
(read-only flat arrays, mapped from disk as
:class:`~repro.core.rtcf.MappedFrozenTCIndex`),
:class:`~repro.core.hybrid.HybridTCIndex` (frozen base + delta overlay),
:class:`~repro.core.chain_cover.ChainCoverIndex` (chain decomposition)
and :class:`~repro.durability.store.DurableTCIndex` (crash-safe facade
over one of the others).  :class:`TCEngine` is the structural type they
all satisfy: helper code (:mod:`repro.core.queries`), the CLI, and the
observability layer are written against it, so instrumentation and
routing attach at one seam instead of five divergent class surfaces.

The paper needs two primitives from a compressed closure: Lemma 1's
range test (``reachable``) and decoding a node's intervals into its
successor list; Section 6's set operations are built on top of them.
:class:`EngineBase` follows that shape: from ``reachable``,
``successors`` and ``predecessors`` it derives ``iter_successors``,
``count_successors``, the three ``*_many`` batch forms and the four set
semijoins (``reachable_from_set``, ``reaching_set``, ``any_reachable``,
``are_disjoint``).  Every engine except the durable forwarder subclasses
it and overrides a derived method only where it has its own algorithm.

The protocol is ``runtime_checkable`` — ``isinstance(engine, TCEngine)``
checks method presence (not signatures; the conformance suite in
``tests/core/test_engine_protocol.py`` pins exact signatures with
:func:`inspect.signature`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Iterable, Iterator, List, Protocol, Set, Tuple,
                    runtime_checkable)

from repro.errors import NodeNotFoundError
from repro.graph.digraph import Node
from repro.obs.instrument import instrumented

__all__ = ["EngineBase", "EngineCapabilities", "TCEngine"]


@dataclass(frozen=True)
class EngineCapabilities:
    """What an engine can do, for dispatch without ``isinstance``.

    ``kind`` is the engine's :func:`repro.open_index` name ("interval",
    "frozen", "hybrid", "chain", "durable", ...).
    ``supports_updates`` — accepts add/remove mutations after build.
    ``supports_batch`` — batch calls run a native fast path (vectorised
    or routed), not just a loop over the single-op form.
    ``is_frozen_snapshot`` — an immutable compiled artefact: it carries
    no graph or tree cover, so it can never be coerced into a mutable
    engine.  ``durable`` — mutations are journalled to stable storage.
    """

    kind: str
    supports_updates: bool
    supports_batch: bool
    is_frozen_snapshot: bool
    durable: bool


@runtime_checkable
class TCEngine(Protocol):
    """Anything that answers transitive-closure queries.

    All query semantics are reflexive by the paper's convention (every
    node reaches itself); ``reflexive=False`` opts out per call.  Batch
    forms return answers in input order.  ``stats()`` returns a
    size/health report (an :class:`~repro.core.index.IndexStats` or a
    plain dict, both ``as_dict()``-able or already a dict).
    """

    # -- point queries --------------------------------------------------
    def reachable(self, source: Node, destination: Node) -> bool: ...

    def successors(self, source: Node, *,
                   reflexive: bool = True) -> Set[Node]: ...

    def predecessors(self, destination: Node, *,
                     reflexive: bool = True) -> Set[Node]: ...

    def iter_successors(self, source: Node, *,
                        reflexive: bool = True) -> Iterator[Node]: ...

    def count_successors(self, source: Node, *,
                         reflexive: bool = True) -> int: ...

    # -- batch queries --------------------------------------------------
    def reachable_many(self,
                       pairs: Iterable[Tuple[Node, Node]]) -> List[bool]: ...

    def successors_many(self, sources: Iterable[Node], *,
                        reflexive: bool = True) -> List[Set[Node]]: ...

    def predecessors_many(self, destinations: Iterable[Node], *,
                          reflexive: bool = True) -> List[Set[Node]]: ...

    # -- set semijoins --------------------------------------------------
    def reachable_from_set(self, sources: Iterable[Node]) -> Set[Node]: ...

    def reaching_set(self, destinations: Iterable[Node]) -> Set[Node]: ...

    def any_reachable(self, sources: Iterable[Node],
                      destinations: Iterable[Node]) -> bool: ...

    def are_disjoint(self, first: Node, second: Node) -> bool: ...

    # -- membership and introspection -----------------------------------
    def nodes(self) -> Iterator[Node]: ...

    def capabilities(self) -> EngineCapabilities: ...

    def stats(self): ...

    def __contains__(self, node: Node) -> bool: ...

    def __len__(self) -> int: ...


class EngineBase:
    """The secondary :class:`TCEngine` methods, derived from three primitives.

    A subclass supplies ``reachable``, ``successors``, ``predecessors``
    and the membership/introspection methods; everything here is the
    plain loop over those.  Engines override a method only where they
    have a native algorithm (vectorised batches, sorted-target sweeps,
    run arithmetic, lazy decoding).

    ``_obs`` and ``_tracer`` are the observability hooks read by
    :func:`~repro.obs.instrument.instrumented`; :func:`repro.obs.attach`
    sets them per instance.  ``None`` costs two attribute reads per
    instrumented call.
    """

    _obs = None
    _tracer = None

    @instrumented("iter_successors")
    def iter_successors(self, source: Node, *,
                        reflexive: bool = True) -> Iterator[Node]:
        """Duplicate-free successor iterator (order unspecified)."""
        return iter(self.successors(source, reflexive=reflexive))

    @instrumented("count_successors")
    def count_successors(self, source: Node, *, reflexive: bool = True) -> int:
        """Number of successors of ``source``."""
        return len(self.successors(source, reflexive=reflexive))

    @instrumented("reachable_many")
    def reachable_many(self, pairs: Iterable[Tuple[Node, Node]]) -> List[bool]:
        """Batch :meth:`reachable` over ``(source, destination)`` pairs."""
        return [self.reachable(source, destination)
                for source, destination in pairs]

    @instrumented("successors_many")
    def successors_many(self, sources: Iterable[Node], *,
                        reflexive: bool = True) -> List[Set[Node]]:
        """One successor set per source, in input order."""
        return [self.successors(source, reflexive=reflexive)
                for source in sources]

    @instrumented("predecessors_many")
    def predecessors_many(self, destinations: Iterable[Node], *,
                          reflexive: bool = True) -> List[Set[Node]]:
        """One predecessor set per destination, in input order."""
        return [self.predecessors(destination, reflexive=reflexive)
                for destination in destinations]

    @instrumented("reachable_from_set")
    def reachable_from_set(self, sources: Iterable[Node]) -> Set[Node]:
        """Everything reachable from *any* source (reflexive)."""
        result: Set[Node] = set()
        for source in sources:
            result |= self.successors(source)
        return result

    @instrumented("reaching_set")
    def reaching_set(self, destinations: Iterable[Node]) -> Set[Node]:
        """Everything that reaches *any* destination (reflexive)."""
        result: Set[Node] = set()
        for destination in destinations:
            result |= self.predecessors(destination)
        return result

    @instrumented("any_reachable")
    def any_reachable(self, sources: Iterable[Node],
                      destinations: Iterable[Node]) -> bool:
        """Does any source reach any destination?  Early-exit semijoin."""
        destination_list = list(destinations)
        for destination in destination_list:
            if destination not in self:
                raise NodeNotFoundError(destination)
        targets = set(destination_list)
        return bool(targets) and any(
            not self.successors(source).isdisjoint(targets)
            for source in sources)

    @instrumented("are_disjoint")
    def are_disjoint(self, first: Node, second: Node) -> bool:
        """Whether the two nodes share no common descendant (reflexive)."""
        return self.successors(first).isdisjoint(self.successors(second))
