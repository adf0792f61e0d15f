"""Chain-decomposition transitive closure — a first-class query engine.

The comparator of Theorem 2 (Jagadish [18], Section 5), promoted from a
baseline to a full :class:`~repro.core.engine.TCEngine`.  Nodes are
partitioned into *chains*; each node stores, per chain, the earliest
chain position it can reach — every later node on that chain is then
reachable by transitivity.  Soundness requires consecutive chain members
to be connected (here: by an arc of the graph, so chains are
vertex-disjoint paths).

This is the parameterized linear-time closure of Kritikakis & Tollis
(arXiv:2404.17954): with ``k`` chains the propagation pass costs
O((n + m) · k) time and every node's label holds at most ``k``
(chain id, min position) entries, so a point ``reachable`` query is one
dict probe — O(1) — and decoding a successor set costs O(answer)
because the per-chain suffixes are disjoint (chains partition the
nodes).

Reverse queries read the labels' inverse, per-chain position lists: for
each chain, every node holding an entry on it, sorted by that entry's
position, plus per-position cut offsets.  The nodes reaching ``(c, s)``
are then the prefix of chain ``c``'s list up to ``s``'s cut — O(answer).
The table is built on the first reverse query, not by :meth:`build`.

Two decompositions are provided:

* ``"greedy"`` — walk the topological order, appending each node to some
  chain whose current tail has an arc to it (first fit), else start a new
  chain;
* ``"optimal"`` — a minimum path cover over the *closure* (Dilworth's
  minimum chain cover), computed with Hopcroft-Karp bipartite matching.
  Chains are then paths in the closure; consecutive members are connected
  by a path, which is equally sound.

Theorem 2 states that the interval scheme on the optimal tree cover never
needs more intervals than the best chain compression needs chain entries
(without "chain reduction"); ``benchmarks/bench_chain_cover.py`` and the
property tests check that inequality empirically.
"""

from __future__ import annotations

from collections import deque
from itertools import chain as chained
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.engine import EngineBase, EngineCapabilities
from repro.errors import GraphError, NodeNotFoundError
from repro.graph.digraph import DiGraph, Node
from repro.graph.traversal import reverse_topological_order, topological_order
from repro.obs.instrument import instrumented

__all__ = ["METHODS", "ChainCoverIndex", "greedy_chain_decomposition",
           "optimal_chain_decomposition"]

METHODS = ("greedy", "optimal")


def greedy_chain_decomposition(graph: DiGraph) -> List[List[Node]]:
    """First-fit path decomposition along the topological order."""
    chains: List[List[Node]] = []
    tail_chain: Dict[Node, int] = {}
    for node in topological_order(graph):
        placed = False
        for predecessor in graph.predecessors(node):
            chain_id = tail_chain.get(predecessor)
            if chain_id is not None:
                chains[chain_id].append(node)
                del tail_chain[predecessor]
                tail_chain[node] = chain_id
                placed = True
                break
        if not placed:
            tail_chain[node] = len(chains)
            chains.append([node])
    return chains


def _hopcroft_karp(left: List[Node], adjacency: Dict[Node, List[Node]]) -> Dict[Node, Node]:
    """Maximum bipartite matching; returns the left -> right matching map."""
    INFINITY = float("inf")
    match_left: Dict[Node, Optional[Node]] = {u: None for u in left}
    match_right: Dict[Node, Optional[Node]] = {}
    distance: Dict[Node, float] = {}

    def bfs() -> bool:
        queue = deque()
        for u in left:
            if match_left[u] is None:
                distance[u] = 0
                queue.append(u)
            else:
                distance[u] = INFINITY
        found_free = False
        while queue:
            u = queue.popleft()
            for v in adjacency.get(u, ()):
                mate = match_right.get(v)
                if mate is None:
                    found_free = True
                elif distance[mate] == INFINITY:
                    distance[mate] = distance[u] + 1
                    queue.append(mate)
        return found_free

    def dfs(root: Node) -> bool:
        # Iterative layered DFS (recursion would overflow on long
        # augmenting paths).  Each frame is [left node, successor iterator,
        # right node through which the frame was entered].
        stack: List[list] = [[root, iter(adjacency.get(root, ())), None]]
        while stack:
            frame = stack[-1]
            u, successors = frame[0], frame[1]
            advanced = False
            for v in successors:
                mate = match_right.get(v)
                if mate is None:
                    # Free right node: augment along the whole stack path.
                    match_left[u] = v
                    match_right[v] = u
                    for depth in range(len(stack) - 1, 0, -1):
                        entered_via = stack[depth][2]
                        parent = stack[depth - 1][0]
                        match_left[parent] = entered_via
                        match_right[entered_via] = parent
                    return True
                if distance.get(mate, INFINITY) == distance[u] + 1:
                    stack.append([mate, iter(adjacency.get(mate, ())), v])
                    advanced = True
                    break
            if not advanced:
                distance[u] = INFINITY
                stack.pop()
        return False

    while bfs():
        for u in left:
            if match_left[u] is None:
                dfs(u)
    return {u: v for u, v in match_left.items() if v is not None}


def optimal_chain_decomposition(graph: DiGraph,
                                closure=None) -> List[List[Node]]:
    """Dilworth minimum chain cover via matching on the transitive closure.

    The number of chains equals ``n - |maximum matching|``, the minimum
    possible (Dilworth); consecutive chain members are related by
    reachability, not necessarily adjacency.
    """
    if closure is None:
        from repro.baselines.full_closure import FullTCIndex
        closure = FullTCIndex.build(graph)
    order = topological_order(graph)
    adjacency = {node: sorted(closure.successors(node, reflexive=False),
                              key=str) for node in order}
    matching = _hopcroft_karp(order, adjacency)
    matched_right = set(matching.values())
    chains = []
    for node in order:
        if node in matched_right:
            continue
        chain = [node]
        while chain[-1] in matching:
            chain.append(matching[chain[-1]])
        chains.append(chain)
    return chains


class ChainCoverIndex(EngineBase):
    """Reachability engine over a chain decomposition.

    ``reach[u]`` maps a chain id to the smallest position on that chain
    reachable from ``u`` (reflexively: ``u`` reaches its own position).
    Point queries are one dict probe; successor sets decode as disjoint
    chain suffixes; predecessor sets are prefixes of the per-chain
    position lists (:class:`_ReverseTable`), built on the first reverse
    query — O(answer) each after that.
    """

    def __init__(self, chains: List[List[Node]],
                 position_of: Dict[Node, Tuple[int, int]],
                 reach: Dict[Node, Dict[int, int]], method: str) -> None:
        self.chains = chains
        self._position_of = position_of
        self._reach = reach
        self.method = method
        self._reverse: Optional[_ReverseTable] = None

    @classmethod
    def build(cls, graph: DiGraph, method: str = "greedy") -> "ChainCoverIndex":
        """Decompose ``graph`` into chains and propagate earliest positions.

        One reverse-topological pass; each arc merges at most ``k``
        (chain, position) entries — the O((n + m) · k) parameterized
        bound.
        """
        if method not in METHODS:
            raise GraphError(f"unknown chain method {method!r}; expected one of {METHODS}")
        if method == "greedy":
            chains = greedy_chain_decomposition(graph)
        else:
            chains = optimal_chain_decomposition(graph)
        position_of: Dict[Node, Tuple[int, int]] = {}
        for chain_id, chain in enumerate(chains):
            for sequence, node in enumerate(chain):
                position_of[node] = (chain_id, sequence)

        reach: Dict[Node, Dict[int, int]] = {}
        for node in reverse_topological_order(graph):
            own_chain, own_sequence = position_of[node]
            entries: Dict[int, int] = {own_chain: own_sequence}
            for successor in graph.successors(node):
                for chain_id, sequence in reach[successor].items():
                    current = entries.get(chain_id)
                    if current is None or sequence < current:
                        entries[chain_id] = sequence
            reach[node] = entries
        return cls(chains, position_of, reach, method)

    # ------------------------------------------------------------------
    # membership and introspection
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._position_of

    def __len__(self) -> int:
        return len(self._position_of)

    def nodes(self) -> Iterator[Node]:
        """All indexed nodes."""
        return iter(self._position_of)

    def capabilities(self) -> EngineCapabilities:
        """An immutable compiled label set — no graph, no updates."""
        return EngineCapabilities(
            kind="chain", supports_updates=False, supports_batch=False,
            is_frozen_snapshot=True, durable=False)

    # ------------------------------------------------------------------
    # point queries
    # ------------------------------------------------------------------
    @instrumented("reachable")
    def reachable(self, source: Node, destination: Node) -> bool:
        """Reflexive reachability: earliest reached position <= target position."""
        if source not in self._reach:
            raise NodeNotFoundError(source)
        try:
            chain_id, sequence = self._position_of[destination]
        except KeyError:
            raise NodeNotFoundError(destination) from None
        earliest = self._reach[source].get(chain_id)
        return earliest is not None and earliest <= sequence

    @instrumented("reachable_many")
    def reachable_many(self, pairs: Iterable[Tuple[Node, Node]]) -> List[bool]:
        """Batch :meth:`reachable`: two dict probes per pair, inline —
        no per-pair method call."""
        reach = self._reach
        position_of = self._position_of
        answers: List[bool] = []
        for source, destination in pairs:
            try:
                entries = reach[source]
            except KeyError:
                raise NodeNotFoundError(source) from None
            try:
                chain_id, sequence = position_of[destination]
            except KeyError:
                raise NodeNotFoundError(destination) from None
            earliest = entries.get(chain_id)
            answers.append(earliest is not None and earliest <= sequence)
        return answers

    @instrumented("successors")
    def successors(self, source: Node, *, reflexive: bool = True) -> Set[Node]:
        """Decode the successor set from the chain suffixes — O(answer)."""
        if source not in self._reach:
            raise NodeNotFoundError(source)
        result: Set[Node] = set()
        for chain_id, sequence in self._reach[source].items():
            result.update(self.chains[chain_id][sequence:])
        if not reflexive:
            result.discard(source)
        return result

    def iter_successors(self, source: Node, *,
                        reflexive: bool = True) -> Iterator[Node]:
        """Lazily yield successors, chain by chain.

        Duplicate-free by construction — the chains partition the nodes,
        so the suffixes are disjoint; O(1) memory beyond the iterator.
        """
        if source not in self._reach:
            raise NodeNotFoundError(source)
        for chain_id, sequence in self._reach[source].items():
            for node in self.chains[chain_id][sequence:]:
                if not reflexive and node == source:
                    continue
                yield node

    @instrumented("predecessors")
    def predecessors(self, destination: Node, *, reflexive: bool = True) -> Set[Node]:
        """Every node that can reach ``destination`` — O(answer).

        One prefix of the destination chain's position list (the first
        reverse query builds the lists, O(entries)).
        """
        try:
            chain_id, sequence = self._position_of[destination]
        except KeyError:
            raise NodeNotFoundError(destination) from None
        result = set(self._reverse_table().reaching(chain_id, sequence))
        if not reflexive:
            result.discard(destination)
        return result

    def _reverse_table(self) -> "_ReverseTable":
        """The per-chain position lists, built on first use.

        Published by one attribute assignment, so two racing first calls
        at worst both build it.
        """
        table = self._reverse
        if table is None:
            table = _ReverseTable(self.chains, self._reach)
            self._reverse = table
        return table

    @instrumented("count_successors")
    def count_successors(self, source: Node, *, reflexive: bool = True) -> int:
        """Number of successors without materialising the set.

        Disjoint suffixes make this a pure arithmetic sum — O(k).
        """
        if source not in self._reach:
            raise NodeNotFoundError(source)
        seen = sum(len(self.chains[chain_id]) - sequence
                   for chain_id, sequence in self._reach[source].items())
        return seen if reflexive else seen - 1

    # ------------------------------------------------------------------
    # set semijoins on chain positions (the set batch forms and
    # reachable_from_set come from EngineBase)
    # ------------------------------------------------------------------
    @instrumented("reaching_set")
    def reaching_set(self, destinations: Iterable[Node]) -> Set[Node]:
        """Everything that reaches *any* destination (reflexive).

        Per chain, only the *largest* destination position matters (a
        node reaching any earlier position reaches the later one too), so
        the answer is a union of one position-list prefix per target
        chain — O(answer).
        """
        targets = self._target_positions(destinations)
        if not targets:
            return set()
        table = self._reverse_table()
        result: Set[Node] = set()
        for chain_id, sequence in targets.items():
            result.update(table.reaching(chain_id, sequence))
        return result

    @instrumented("any_reachable")
    def any_reachable(self, sources: Iterable[Node],
                      destinations: Iterable[Node]) -> bool:
        """Does any source reach any destination?  Early-exit semijoin."""
        targets = self._target_positions(destinations)
        if not targets:
            return False
        for source in sources:
            entries = self._reach.get(source)
            if entries is None:
                raise NodeNotFoundError(source)
            for chain_id, sequence in targets.items():
                earliest = entries.get(chain_id)
                if earliest is not None and earliest <= sequence:
                    return True
        return False

    @instrumented("are_disjoint")
    def are_disjoint(self, first: Node, second: Node) -> bool:
        """Whether the two nodes share no common descendant (reflexive).

        Chain suffixes always contain the chain's last node, so two
        suffixes of the same chain always intersect: the nodes are
        disjoint iff their labels share no chain — O(min(k, k')).
        """
        left = self._reach.get(first)
        if left is None:
            raise NodeNotFoundError(first)
        right = self._reach.get(second)
        if right is None:
            raise NodeNotFoundError(second)
        if len(left) > len(right):
            left, right = right, left
        return not any(chain_id in right for chain_id in left)

    def _target_positions(self, destinations: Iterable[Node]) -> Dict[int, int]:
        """Per chain, the largest (easiest) destination position."""
        targets: Dict[int, int] = {}
        for destination in destinations:
            try:
                chain_id, sequence = self._position_of[destination]
            except KeyError:
                raise NodeNotFoundError(destination) from None
            current = targets.get(chain_id)
            if current is None or sequence > current:
                targets[chain_id] = sequence
        return targets

    # ------------------------------------------------------------------
    # size accounting
    # ------------------------------------------------------------------
    @property
    def num_chains(self) -> int:
        """Number of chains in the decomposition."""
        return len(self.chains)

    @property
    def num_entries(self) -> int:
        """Total (chain, position) entries — the Theorem 2 quantity.

        Each node's entry for its *own* position is charged too, mirroring
        the interval scheme's per-node tree interval.
        """
        return sum(len(entries) for entries in self._reach.values())

    @property
    def storage_units(self) -> int:
        """Two numbers (chain id, position) per entry."""
        return 2 * self.num_entries

    def stats(self) -> dict:
        """A small size/shape report for CLI output and benchmarks."""
        nodes = len(self._position_of)
        return {
            "num_nodes": nodes,
            "num_chains": self.num_chains,
            "num_entries": self.num_entries,
            "entries_per_node": self.num_entries / nodes if nodes else 0.0,
            "storage_units": self.storage_units,
            "method": self.method,
        }

    def _register_gauges(self, registry, label: str) -> None:
        """Health gauges for :func:`repro.obs.instrument.attach`."""
        import weakref

        from repro.obs.instrument import _gauge
        ref = weakref.ref(self)
        _gauge(registry, "tc_nodes", "indexed nodes", label, ref, len)
        _gauge(registry, "tc_chain_count", "chains in the decomposition",
               label, ref, lambda e: e.num_chains)
        _gauge(registry, "tc_chain_entries",
               "total (chain, position) label entries (Theorem 2 quantity)",
               label, ref, lambda e: e.num_entries)
        _gauge(registry, "tc_chain_entries_per_node",
               "mean label entries per node", label, ref,
               lambda e: e.num_entries / max(len(e), 1))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ChainCoverIndex(method={self.method!r}, chains={self.num_chains}, "
                f"entries={self.num_entries})")


class _ReverseTable:
    """Per-chain position lists: the inverse of the chain labels.

    Nodes get dense *slots* in chain-major order (chain ``c`` starts at
    slot ``starts[c]``).  Every label entry ``(c, p)`` of node ``u`` is
    keyed by the slot of ``(c, p)``; ``holders`` lists the entries'
    nodes sorted by that key, and ``cut[t]`` counts the entries keyed
    below slot ``t``.  The holders of chain ``c`` at positions ``<= s``
    are then ``holders[cut[starts[c]]:cut[starts[c] + s + 1]]`` —
    exactly the nodes that reach ``(c, s)``.  ``holders`` is a flat
    object array (one reference per entry), so a query answer is one
    contiguous slice with no id-to-node lookups.

    A query accelerator, like the frozen engine's reverse index: not
    counted in :attr:`ChainCoverIndex.num_entries`.
    """

    __slots__ = ("starts", "holders", "cut")

    def __init__(self, chains: List[List[Node]],
                 reach: Dict[Node, Dict[int, int]]) -> None:
        import numpy as np
        n = sum(map(len, chains))
        nodes = np.fromiter(chained.from_iterable(chains), dtype=object,
                            count=n)
        starts = [0]
        for members in chains:
            starts.append(starts[-1] + len(members))
        self.starts = starts
        rows = [reach[node] for members in chains for node in members]
        sizes = np.fromiter(map(len, rows), dtype=np.int64, count=n)
        total = int(sizes.sum())
        dtype = np.int32 if n < 2**31 else np.int64
        # Each entry's key is the slot of the position it reaches.
        keys = np.asarray(starts[:-1], dtype=dtype)[np.fromiter(
            chained.from_iterable(rows), dtype=dtype, count=total)]
        keys += np.fromiter(chained.from_iterable(map(dict.values, rows)),
                            dtype=dtype, count=total)
        self.cut = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys, minlength=n), out=self.cut[1:])
        # Sort slot ids, not references, and drop each temporary as soon
        # as it is used: the transient peak stays ~2x the table's bytes.
        order = np.argsort(keys)
        del keys
        ids = np.repeat(np.arange(n, dtype=dtype), sizes)[order]
        del order
        self.holders = nodes[ids]

    def reaching(self, chain_id: int, sequence: int) -> List[Node]:
        """The nodes whose entry on ``chain_id`` is at most ``sequence``,
        i.e. that reach that chain position."""
        slot = self.starts[chain_id]
        return self.holders[self.cut[slot]:
                            self.cut[slot + sequence + 1]].tolist()
