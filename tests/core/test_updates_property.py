"""Property tests: random update streams never break index exactness.

The strongest guarantee the Section 4 algorithms can offer is that after
*any* sequence of insertions and deletions the index answers exactly what
pointer chasing answers.  Hypothesis drives random operation streams
against small indexes and verifies after every single operation.
"""

from hypothesis import given, settings, strategies as st

from repro.core.index import IntervalTCIndex
from repro.graph.digraph import DiGraph
from repro.graph.traversal import reachable_from

# Operation encoding: (kind, a, b) with integers mapped onto live nodes.
operations = st.lists(
    st.tuples(st.sampled_from(["add_node", "add_node2", "add_arc",
                               "del_arc", "del_node"]),
              st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)),
    max_size=18,
)

seed_dags = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=14,
).map(lambda pairs: DiGraph(
    nodes=range(8),
    arcs=[(min(a, b), max(a, b)) for a, b in pairs if a != b],
))


def apply_operation(index, operation, counter):
    """Translate an abstract operation onto the current index state."""
    kind, a, b = operation
    nodes = sorted(index.nodes(), key=str)
    if not nodes:
        index.add_node(("seed", counter))
        return
    pick_a = nodes[a % len(nodes)]
    pick_b = nodes[b % len(nodes)]
    if kind == "add_node":
        index.add_node(("n", counter), parents=[pick_a])
    elif kind == "add_node2":
        parents = [pick_a] if pick_a == pick_b else [pick_a, pick_b]
        index.add_node(("n", counter), parents=parents)
    elif kind == "add_arc":
        if pick_a != pick_b and not index.graph.has_arc(pick_a, pick_b) \
                and not index.reachable(pick_b, pick_a):
            index.add_arc(pick_a, pick_b)
    elif kind == "del_arc":
        arcs = sorted(index.graph.arcs(), key=str)
        if arcs:
            index.remove_arc(*arcs[a % len(arcs)])
    elif kind == "del_node":
        if len(nodes) > 1:
            index.remove_node(pick_a)


def assert_exact(index):
    for source in index.nodes():
        assert index.successors(source) == reachable_from(index.graph, source)


@settings(max_examples=40)
@given(seed_dags, operations, st.sampled_from([1, 2, 4, 32]))
def test_stream_preserves_exactness(graph, stream, gap):
    index = IntervalTCIndex.build(graph, gap=gap)
    for counter, operation in enumerate(stream):
        apply_operation(index, operation, counter)
        index.check_invariants()
        assert_exact(index)


@settings(max_examples=25)
@given(seed_dags, operations)
def test_stream_on_merged_index(graph, stream):
    index = IntervalTCIndex.build(graph, gap=8, merge=True)
    for counter, operation in enumerate(stream):
        apply_operation(index, operation, counter)
    index.check_invariants()
    assert_exact(index)


@settings(max_examples=25)
@given(seed_dags, operations)
def test_stream_then_renumber_then_rebuild_agree(graph, stream):
    index = IntervalTCIndex.build(graph, gap=8)
    for counter, operation in enumerate(stream):
        apply_operation(index, operation, counter)
    updated_answers = {node: index.successors(node) for node in index.nodes()}
    index.renumber()
    assert {node: index.successors(node) for node in index.nodes()} == updated_answers
    rebuilt = index.rebuild()
    assert {node: rebuilt.successors(node) for node in rebuilt.nodes()} == updated_answers
    # Rebuild restores optimality: never more intervals than the drifted index.
    assert rebuilt.num_intervals <= index.num_intervals
