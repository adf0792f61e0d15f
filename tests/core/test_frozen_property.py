"""Property tests: the frozen engine always equals the mutable engine.

Same random-DAG strategy as ``test_index_property.py``; every example
builds the mutable index, freezes it, and checks the full query surface, including an update → re-freeze
cycle and the staleness guard.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.index import IntervalTCIndex
from repro.errors import IndexStateError
from repro.graph.digraph import DiGraph


@st.composite
def small_dags(draw):
    """Arbitrary DAGs: arcs forced forward along a drawn permutation."""
    n = draw(st.integers(1, 14))
    permutation = draw(st.permutations(range(n)))
    rank = {node: position for position, node in enumerate(permutation)}
    pair_list = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40))
    graph = DiGraph(nodes=range(n))
    for a, b in pair_list:
        if a == b:
            continue
        if rank[a] > rank[b]:
            a, b = b, a
        graph.add_arc(a, b)
    return graph


@given(small_dags(), st.sampled_from([1, 3, 32]))
def test_frozen_equals_mutable(graph, gap):
    index = IntervalTCIndex.build(graph, gap=gap)
    frozen = index.freeze()
    nodes = list(graph.nodes())
    for u in nodes:
        assert frozen.successors(u) == index.successors(u)
        assert frozen.predecessors(u) == index.predecessors(u)
        assert frozen.count_successors(u) == index.count_successors(u)
    pairs = [(u, v) for u in nodes for v in nodes]
    assert frozen.reachable_many(pairs) == \
        [index.reachable(u, v) for u, v in pairs]


@given(small_dags(), st.sampled_from(["integer", "fractional"]))
def test_frozen_equals_mutable_any_numbering(graph, numbering):
    index = IntervalTCIndex.build(graph, numbering=numbering, gap=4)
    frozen = index.freeze()
    for u in graph.nodes():
        assert frozen.successors(u) == index.successors(u)
        assert frozen.predecessors(u) == index.predecessors(u)


@settings(max_examples=40)
@given(small_dags(), st.integers(0, 10 ** 6))
def test_update_then_refreeze(graph, seed):
    """A mutation staleness-invalidates the old view; the re-frozen view
    matches the updated mutable index exactly."""
    index = IntervalTCIndex.build(graph, gap=8)
    frozen = index.freeze()
    nodes = sorted(graph.nodes())
    anchor = nodes[seed % len(nodes)]
    index.add_node("fresh", parents=[anchor])
    assert frozen.is_stale()
    with pytest.raises(IndexStateError):
        frozen.reachable(anchor, anchor)
    with pytest.raises(IndexStateError):
        frozen.successors(anchor)
    refrozen = index.freeze()
    assert refrozen.reachable(anchor, "fresh")
    for u in index.nodes():
        assert refrozen.successors(u) == index.successors(u)
        assert refrozen.predecessors(u) == index.predecessors(u)


@settings(max_examples=30)
@given(small_dags())
def test_semijoins_match_bruteforce(graph):
    index = IntervalTCIndex.build(graph, gap=1)
    frozen = index.freeze()
    nodes = sorted(graph.nodes())
    sources = nodes[::2]
    destinations = nodes[1::2]
    expected_forward = set()
    for source in sources:
        expected_forward |= index.successors(source)
    assert frozen.reachable_from_set(sources) == expected_forward
    expected_reaching = set()
    for destination in destinations:
        expected_reaching |= index.predecessors(destination)
    assert frozen.reaching_set(destinations) == expected_reaching
    expected_any = any(index.reachable(u, v)
                       for u in sources for v in destinations)
    assert frozen.any_reachable(sources, destinations) == expected_any
    for u in nodes[:6]:
        for v in nodes[:6]:
            expected = not (index.successors(u) & index.successors(v))
            assert frozen.are_disjoint(u, v) == expected
