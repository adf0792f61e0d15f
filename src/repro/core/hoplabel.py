"""2-hop reachability labeling — a hub-based oracle engine.

The design point of Jin & Wang's "Simple, Fast, and Scalable Reachability
Oracle" (see PAPERS.md) and of pruned landmark labeling: every node ``u``
carries two sorted hub-rank sets, ``Lout(u)`` (hubs ``u`` reaches) and
``Lin(v)`` (hubs that reach ``v``), and

    ``u`` reaches ``v``  iff  ``Lout(u) ∩ Lin(v) ≠ ∅``

— one sorted-list intersection per point query, no traversal and no
interval arithmetic.  Where the paper's interval index compresses best on
tree-like structure, hop labels shine on dense bushy DAGs whose closure
funnels through a few high-degree hubs.

Construction processes every node once as a hub, in a degree/topological
rank order (highest ``(in+1)·(out+1)`` degree product first, topological
position as the tie-break), running one *pruned* forward and one pruned
backward BFS per hub: a visit that the labels built so far can already
answer is cut off, which is what keeps label sets near the closure's
hub structure instead of Θ(n) each.  Correctness of pruning is the
standard argument: for any reachable pair take the minimum-rank hub on
any connecting path; neither endpoint can have been pruned when that hub
ran, so the pair intersects on it.

The oracle is an immutable compiled artefact (``is_frozen_snapshot`` in
capability terms): it keeps no adjacency.  Set-valued queries decode
from the inverted *cluster* form of the same labels — hub rank ``r`` maps
to every node carrying ``r`` — so ``successors`` is a union of in-cluster
lists, O(candidates) with no per-candidate intersection.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Set

from repro.core.engine import EngineBase, EngineCapabilities
from repro.errors import NodeNotFoundError
from repro.graph.digraph import DiGraph, Node
from repro.graph.traversal import topological_order
from repro.obs.instrument import instrumented

__all__ = ["HopLabelIndex"]


def _intersects(left: List[int], right: List[int]) -> bool:
    """Whether two ascending rank lists share an element (two-pointer)."""
    i = j = 0
    left_len, right_len = len(left), len(right)
    while i < left_len and j < right_len:
        a, b = left[i], right[j]
        if a == b:
            return True
        if a < b:
            i += 1
        else:
            j += 1
    return False


class HopLabelIndex(EngineBase):
    """2-hop reachability oracle with pruned Lin/Lout hub labels."""

    def __init__(self, node_of: List[Node], id_of: Dict[Node, int],
                 lin: List[List[int]], lout: List[List[int]]) -> None:
        self._node_of = node_of
        self._id_of = id_of
        self._lin = lin
        self._lout = lout
        # Inverted labels: rank -> node ids carrying it, for set queries.
        in_clusters: List[List[int]] = [[] for _ in node_of]
        out_clusters: List[List[int]] = [[] for _ in node_of]
        for identifier, ranks in enumerate(lin):
            for rank in ranks:
                in_clusters[rank].append(identifier)
        for identifier, ranks in enumerate(lout):
            for rank in ranks:
                out_clusters[rank].append(identifier)
        self._in_clusters = in_clusters
        self._out_clusters = out_clusters

    @classmethod
    def build(cls, graph: DiGraph) -> "HopLabelIndex":
        """Label ``graph`` with pruned forward/backward hub BFS passes."""
        order = list(topological_order(graph))
        id_of = {node: identifier for identifier, node in enumerate(order)}
        out_adj: List[List[int]] = [
            [id_of[successor] for successor in graph.successors(node)]
            for node in order]
        in_adj: List[List[int]] = [
            [id_of[predecessor] for predecessor in graph.predecessors(node)]
            for node in order]
        # Highest degree product first — the hubs the closure funnels
        # through.  Ties break on *binary-split* order over topological
        # positions (the midpoint of [0, n), then the midpoints of each
        # half, breadth-first): on chain-shaped regions where every
        # degree product is equal, each hub halves the remaining
        # unsplit span, which keeps labels O(log n) per node.  A naive
        # front-to-back (or centre-outward) tie order degenerates to
        # O(n) labels per node on exactly those regions.
        count = len(order)
        split_rank = [0] * count
        spans = [(0, count)]
        sequence = 0
        for low, high in spans:  # appended-to while iterating: BFS
            if low >= high:
                continue
            middle = (low + high) // 2
            split_rank[middle] = sequence
            sequence += 1
            spans.append((low, middle))
            spans.append((middle + 1, high))
        hubs = sorted(range(count),
                      key=lambda identifier: (
                          -(len(in_adj[identifier]) + 1)
                          * (len(out_adj[identifier]) + 1),
                          split_rank[identifier]))
        lin: List[List[int]] = [[] for _ in order]
        lout: List[List[int]] = [[] for _ in order]
        for rank, hub in enumerate(hubs):
            hub_out = lout[hub]
            # Forward pass: rank lands in Lin of everything the labels
            # cannot already prove reachable from the hub.
            stack = [hub]
            seen = {hub}
            while stack:
                current = stack.pop()
                if current != hub and _intersects(hub_out, lin[current]):
                    continue
                lin[current].append(rank)
                for successor in out_adj[current]:
                    if successor not in seen:
                        seen.add(successor)
                        stack.append(successor)
            hub_in = lin[hub]
            # Backward pass: rank lands in Lout of everything not yet
            # provably reaching the hub.  ``hub_in`` now contains the
            # hub's own rank, which is on no other Lout yet, so the
            # hub itself is never pruned here.
            stack = [hub]
            seen = {hub}
            while stack:
                current = stack.pop()
                if current != hub and _intersects(lout[current], hub_in):
                    continue
                lout[current].append(rank)
                for predecessor in in_adj[current]:
                    if predecessor not in seen:
                        seen.add(predecessor)
                        stack.append(predecessor)
        return cls(order, id_of, lin, lout)

    # ------------------------------------------------------------------
    # membership and introspection
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._id_of

    def __len__(self) -> int:
        return len(self._node_of)

    def nodes(self) -> Iterator[Node]:
        """All indexed nodes."""
        return iter(self._id_of)

    def capabilities(self) -> EngineCapabilities:
        """An immutable compiled label set — no graph, no updates."""
        return EngineCapabilities(
            kind="hoplabel", supports_updates=False, supports_batch=False,
            is_frozen_snapshot=True, durable=False)

    def _id(self, node: Node) -> int:
        try:
            return self._id_of[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    # ------------------------------------------------------------------
    # point queries
    # ------------------------------------------------------------------
    @instrumented("reachable")
    def reachable(self, source: Node, destination: Node) -> bool:
        """One sorted-list intersection: ``Lout(u) ∩ Lin(v) ≠ ∅``."""
        if source not in self._id_of:
            raise NodeNotFoundError(source)
        try:
            target = self._id_of[destination]
        except KeyError:
            raise NodeNotFoundError(destination) from None
        return _intersects(self._lout[self._id_of[source]],
                           self._lin[target])

    @instrumented("successors")
    def successors(self, source: Node, *, reflexive: bool = True) -> Set[Node]:
        """Union of the in-clusters of every hub in ``Lout(source)``."""
        identifiers: Set[int] = set()
        for rank in self._lout[self._id(source)]:
            identifiers.update(self._in_clusters[rank])
        node_of = self._node_of
        result = {node_of[identifier] for identifier in identifiers}
        if not reflexive:
            result.discard(source)
        return result

    def iter_successors(self, source: Node, *,
                        reflexive: bool = True) -> Iterator[Node]:
        """Lazily yield successors, cluster by cluster, deduplicated."""
        seen: Set[int] = set()
        source_id = self._id(source)
        node_of = self._node_of
        for rank in self._lout[source_id]:
            for identifier in self._in_clusters[rank]:
                if identifier in seen:
                    continue
                seen.add(identifier)
                if not reflexive and identifier == source_id:
                    continue
                yield node_of[identifier]

    @instrumented("predecessors")
    def predecessors(self, destination: Node, *, reflexive: bool = True) -> Set[Node]:
        """Union of the out-clusters of every hub in ``Lin(destination)``."""
        identifiers: Set[int] = set()
        for rank in self._lin[self._id(destination)]:
            identifiers.update(self._out_clusters[rank])
        node_of = self._node_of
        result = {node_of[identifier] for identifier in identifiers}
        if not reflexive:
            result.discard(destination)
        return result

    # ------------------------------------------------------------------
    # hub-union semijoins (the batch forms, count_successors and
    # are_disjoint come from EngineBase)
    # ------------------------------------------------------------------
    @instrumented("reachable_from_set")
    def reachable_from_set(self, sources: Iterable[Node]) -> Set[Node]:
        """Everything reachable from *any* source (reflexive).

        One union of hub ranks, then one union of in-clusters — shared
        hubs between sources are decoded once.
        """
        ranks: Set[int] = set()
        for source in sources:
            ranks.update(self._lout[self._id(source)])
        identifiers: Set[int] = set()
        for rank in ranks:
            identifiers.update(self._in_clusters[rank])
        node_of = self._node_of
        return {node_of[identifier] for identifier in identifiers}

    @instrumented("reaching_set")
    def reaching_set(self, destinations: Iterable[Node]) -> Set[Node]:
        """Everything that reaches *any* destination (reflexive)."""
        ranks: Set[int] = set()
        for destination in destinations:
            ranks.update(self._lin[self._id(destination)])
        identifiers: Set[int] = set()
        for rank in ranks:
            identifiers.update(self._out_clusters[rank])
        node_of = self._node_of
        return {node_of[identifier] for identifier in identifiers}

    @instrumented("any_reachable")
    def any_reachable(self, sources: Iterable[Node],
                      destinations: Iterable[Node]) -> bool:
        """Does any source reach any destination?  Early-exit semijoin.

        The union of the destinations' Lin sets is taken once; each
        source then pays one membership sweep over its Lout list.
        """
        targets: Set[int] = set()
        for destination in destinations:
            targets.update(self._lin[self._id(destination)])
        if not targets:
            return False
        for source in sources:
            if any(rank in targets
                   for rank in self._lout[self._id(source)]):
                return True
        return False

    # ------------------------------------------------------------------
    # size accounting
    # ------------------------------------------------------------------
    @property
    def num_entries(self) -> int:
        """Total label entries across both directions."""
        return (sum(len(ranks) for ranks in self._lin)
                + sum(len(ranks) for ranks in self._lout))

    @property
    def storage_units(self) -> int:
        """One hub rank per label entry."""
        return self.num_entries

    def stats(self) -> dict:
        """A small size/shape report for CLI output and benchmarks."""
        nodes = len(self._node_of)
        entries_in = sum(len(ranks) for ranks in self._lin)
        entries_out = sum(len(ranks) for ranks in self._lout)
        largest = max(
            (len(ranks) for ranks in self._lin + self._lout), default=0)
        return {
            "num_nodes": nodes,
            "label_entries_in": entries_in,
            "label_entries_out": entries_out,
            "num_entries": entries_in + entries_out,
            "entries_per_node": ((entries_in + entries_out) / nodes
                                 if nodes else 0.0),
            "max_label": largest,
            "storage_units": self.storage_units,
        }

    def to_labels(self) -> dict:
        """The raw label state, for serialization round-trips."""
        return {
            "nodes": list(self._node_of),
            "lin": [list(ranks) for ranks in self._lin],
            "lout": [list(ranks) for ranks in self._lout],
        }

    @classmethod
    def from_labels(cls, nodes: List[Node], lin: List[List[int]],
                    lout: List[List[int]]) -> "HopLabelIndex":
        """Rehydrate from :meth:`to_labels` output (clusters are rederived)."""
        node_of = list(nodes)
        id_of = {node: identifier for identifier, node in enumerate(node_of)}
        return cls(node_of, id_of,
                   [list(ranks) for ranks in lin],
                   [list(ranks) for ranks in lout])

    def _register_gauges(self, registry, label: str) -> None:
        """Health gauges for :func:`repro.obs.instrument.attach`."""
        import weakref

        from repro.obs.instrument import _gauge
        ref = weakref.ref(self)
        _gauge(registry, "tc_nodes", "indexed nodes", label, ref, len)
        _gauge(registry, "tc_hop_label_entries",
               "total Lin/Lout hub-rank entries", label, ref,
               lambda e: e.num_entries)
        _gauge(registry, "tc_hop_entries_per_node",
               "mean label entries per node", label, ref,
               lambda e: e.num_entries / max(len(e), 1))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"HopLabelIndex(nodes={len(self)}, "
                f"entries={self.num_entries})")
