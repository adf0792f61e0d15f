"""Higher-level queries over a compressed closure.

Section 6 of the paper lists the operations a knowledge-representation
system needs beyond raw reachability: "subsumption, disjointness, least
common ancestors, and other properties".  The set semijoins and
disjointness are engine methods (``reachable_from_set``,
``reaching_set``, ``any_reachable``, ``are_disjoint`` and the batch
``reachable_many`` on every :class:`~repro.core.engine.TCEngine`); this
module adds what is computed *across* several of those calls — common
ancestors and descendants, least common ancestors and greatest common
descendants, comparability, topological levels — and the irreflexive
(strict) view of reachability for callers who do not want the paper's
every-node-reaches-itself convention.

Every helper is written against the shared
:class:`~repro.core.engine.TCEngine` protocol, so any engine works —
mutable, frozen, hybrid, or durable (:func:`topological_level` is the
one exception: it needs a graph, which only mutable-backed engines
carry).  Given a mutable index that currently has a fresh frozen view
(see :meth:`IntervalTCIndex.freeze`), the set helpers transparently
route through the flat-array engine, whose predecessor queries use the
reverse interval index instead of scanning every node.  A hybrid engine
routes internally (base snapshot + delta overlay), so it is always used
as-is.
"""

from __future__ import annotations

from typing import Iterable, Set

from repro.core.engine import TCEngine
from repro.core.index import IntervalTCIndex
from repro.graph.digraph import Node

#: Anything with the shared query surface — kept as an alias so existing
#: ``queries.Engine`` annotations keep working.
Engine = TCEngine


def _engine(index: Engine) -> Engine:
    """The fastest engine available for ``index`` without compiling one.

    Frozen, hybrid and durable engines are used as-is (the hybrid does
    its own base/delta routing); a mutable index is swapped for its
    cached frozen view when that view exists and is fresh.  Freezing is
    never triggered here — callers opt in with ``index.freeze()``.
    """
    frozen_view = getattr(index, "frozen_view", None)
    if frozen_view is not None:
        view = frozen_view()
        return index if view is None else view
    return index


def descendants(index: Engine, node: Node) -> Set[Node]:
    """Strict descendants of ``node`` (successors minus the node itself)."""
    return _engine(index).successors(node, reflexive=False)


def ancestors(index: Engine, node: Node) -> Set[Node]:
    """Strict ancestors of ``node`` (predecessors minus the node itself)."""
    return _engine(index).predecessors(node, reflexive=False)


def strictly_reachable(index: Engine, source: Node, destination: Node) -> bool:
    """Reachability under irreflexive semantics: ``u -> u`` only via a real path.

    The stored relation is acyclic, so a node never strictly reaches itself.
    """
    if source == destination:
        return False
    return index.reachable(source, destination)


def common_ancestors(index: Engine, nodes: Iterable[Node]) -> Set[Node]:
    """Nodes that reach *every* node in ``nodes`` (reflexively)."""
    node_list = list(nodes)
    if not node_list:
        return set()
    engine = _engine(index)
    result = engine.predecessors(node_list[0])
    for node in node_list[1:]:
        result &= engine.predecessors(node)
    return result


def common_descendants(index: Engine, nodes: Iterable[Node]) -> Set[Node]:
    """Nodes reachable from *every* node in ``nodes`` (reflexively)."""
    node_list = list(nodes)
    if not node_list:
        return set()
    engine = _engine(index)
    result = engine.successors(node_list[0])
    for node in node_list[1:]:
        result &= engine.successors(node)
    return result


def least_common_ancestors(index: Engine, nodes: Iterable[Node]) -> Set[Node]:
    """The minimal elements of the common-ancestor set.

    In a lattice-shaped hierarchy this is the greatest lower bound of the
    concepts *above* ``nodes``; in a general DAG there may be several
    incomparable least common ancestors, all of which are returned.
    """
    engine = _engine(index)
    candidates = common_ancestors(engine, nodes)
    return {candidate for candidate in candidates
            if not any(candidate is not other and engine.reachable(candidate, other)
                       for other in candidates)}


def greatest_common_descendants(index: Engine, nodes: Iterable[Node]) -> Set[Node]:
    """The maximal elements of the common-descendant set (dual of LCA)."""
    engine = _engine(index)
    candidates = common_descendants(engine, nodes)
    return {candidate for candidate in candidates
            if not any(candidate is not other and engine.reachable(other, candidate)
                       for other in candidates)}


def are_comparable(index: Engine, first: Node, second: Node) -> bool:
    """Whether one of the two nodes reaches the other."""
    return index.reachable(first, second) or index.reachable(second, first)


def topological_level(index: IntervalTCIndex, node: Node) -> int:
    """Length of the longest path from any root down to ``node``.

    Computed by memoised pointer chasing over the ancestor cone (cheap,
    bounded by the cone size); used by reports and examples.  Needs the
    mutable index — a frozen view carries no graph.
    """
    graph = index.graph
    memo = {}
    stack = [(node, iter(graph.predecessors(node)))]
    while stack:
        current, parents = stack[-1]
        advanced = False
        for parent in parents:
            if parent not in memo:
                stack.append((parent, iter(graph.predecessors(parent))))
                advanced = True
                break
        if advanced:
            continue
        stack.pop()
        levels = [memo[parent] for parent in graph.predecessors(current)]
        memo[current] = 1 + max(levels) if levels else 0
    return memo[node]

