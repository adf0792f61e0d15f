"""Property tests: the hybrid engine always equals an independent rebuild.

Same random-DAG strategy as ``test_frozen_property.py``, plus a drawn
mutation script.  Each example drives a :class:`HybridTCIndex` through
the script and checks the full query surface against a from-scratch
:class:`IntervalTCIndex` built over the resulting graph — and that
:meth:`compact` never changes a single answer.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.hybrid import HybridTCIndex
from repro.core.index import IntervalTCIndex
from repro.graph.digraph import DiGraph


@st.composite
def small_dags(draw):
    """Arbitrary DAGs: arcs forced forward along a drawn permutation."""
    n = draw(st.integers(1, 12))
    permutation = draw(st.permutations(range(n)))
    rank = {node: position for position, node in enumerate(permutation)}
    pair_list = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30))
    graph = DiGraph(nodes=range(n))
    for a, b in pair_list:
        if a == b:
            continue
        if rank[a] > rank[b]:
            a, b = b, a
        graph.add_arc(a, b)
    return graph


# Op descriptors are drawn abstractly (kind + integer picks) and resolved
# against the live node set at apply time, so shrinking stays meaningful.
ops = st.lists(
    st.tuples(st.sampled_from(["add_arc", "add_node", "remove_arc",
                               "remove_node", "compact"]),
              st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)),
    max_size=25)


def apply_script(hybrid, script):
    """Resolve and apply each drawn op; inapplicable draws are skipped."""
    next_label = 1000
    for kind, first, second in script:
        nodes = sorted(hybrid.index.nodes(), key=repr)
        if kind == "compact":
            hybrid.compact()
            continue
        if kind == "add_node":
            budget = first % 3
            parents = [nodes[(first + i) % len(nodes)]
                       for i in range(min(budget, len(nodes)))]
            hybrid.add_node(next_label, parents=sorted(set(parents),
                                                       key=repr))
            next_label += 1
            continue
        if not nodes:
            continue
        if kind == "add_arc":
            source = nodes[first % len(nodes)]
            destination = nodes[second % len(nodes)]
            if source != destination \
                    and not hybrid.graph.has_arc(source, destination) \
                    and not hybrid.index.reachable(destination, source):
                hybrid.add_arc(source, destination)
        elif kind == "remove_arc":
            arcs = sorted(hybrid.graph.arcs(), key=repr)
            if arcs:
                hybrid.remove_arc(*arcs[first % len(arcs)])
        elif kind == "remove_node":
            if len(nodes) > 1:
                hybrid.remove_node(nodes[first % len(nodes)])


def assert_matches_rebuild(hybrid):
    rebuilt = IntervalTCIndex.build(
        DiGraph(arcs=hybrid.graph.arcs(), nodes=hybrid.graph.nodes()))
    for node in rebuilt.nodes():
        assert hybrid.successors(node) == rebuilt.successors(node)
        assert hybrid.predecessors(node) == rebuilt.predecessors(node)


@settings(max_examples=60, deadline=None)
@given(small_dags(), ops, st.sampled_from([2, 6, 1000]))
def test_hybrid_equals_rebuild_under_churn(graph, script, max_delta):
    hybrid = HybridTCIndex.build(graph, max_delta=max_delta,
                                 max_ratio=1000.0)
    apply_script(hybrid, script)
    assert_matches_rebuild(hybrid)


@settings(max_examples=60, deadline=None)
@given(small_dags(), ops)
def test_compact_is_a_query_level_noop(graph, script):
    """Whatever state the overlay is in, folding it changes no answer."""
    hybrid = HybridTCIndex.build(graph, max_delta=1000, max_ratio=1000.0)
    apply_script(hybrid, script)
    nodes = sorted(hybrid.index.nodes(), key=repr)
    pairs = [(u, v) for u in nodes for v in nodes]
    before_many = hybrid.reachable_many(pairs)
    before = {node: (hybrid.successors(node), hybrid.predecessors(node),
                     hybrid.count_successors(node)) for node in nodes}
    was_tainted = hybrid.tainted
    hybrid.compact()
    assert not hybrid.tainted
    assert hybrid.delta_size == 0
    assert hybrid.reachable_many(pairs) == before_many
    for node in nodes:
        assert hybrid.successors(node) == before[node][0]
        assert hybrid.predecessors(node) == before[node][1]
        assert hybrid.count_successors(node) == before[node][2]
    if was_tainted:
        assert_matches_rebuild(hybrid)
