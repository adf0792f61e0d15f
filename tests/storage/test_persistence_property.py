"""Property tests: every persistence path is a faithful round trip."""

import string

from hypothesis import given, settings, strategies as st

from repro.core.index import IntervalTCIndex
from repro.core.rtcf import load_rtcf, save_rtcf
from repro.core.serialize import index_from_dict, index_to_dict
from repro.graph.digraph import DiGraph
from repro.graph.io import dumps_edge_list, graph_from_dict, graph_to_dict, loads_edge_list

labels = st.text(alphabet=string.ascii_lowercase + string.digits,
                 min_size=1, max_size=6)


@st.composite
def labelled_dags(draw):
    names = draw(st.lists(labels, min_size=1, max_size=10, unique=True))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, len(names) - 1),
                  st.integers(0, len(names) - 1)),
        max_size=25))
    graph = DiGraph(nodes=names)
    for a, b in pairs:
        if a != b:
            graph.add_arc(names[min(a, b)], names[max(a, b)])
    return graph


@settings(max_examples=30)
@given(labelled_dags())
def test_edge_list_round_trip(graph):
    assert loads_edge_list(dumps_edge_list(graph)) == graph


@settings(max_examples=30)
@given(labelled_dags())
def test_graph_dict_round_trip(graph):
    assert graph_from_dict(graph_to_dict(graph)) == graph


@settings(max_examples=25)
@given(labelled_dags(), st.sampled_from([1, 4, 32]), st.booleans())
def test_json_index_round_trip(graph, gap, merge):
    index = IntervalTCIndex.build(graph, gap=gap, merge=merge)
    again = index_from_dict(index_to_dict(index))
    again.check_invariants()
    for node in graph:
        assert again.successors(node) == index.successors(node)
        assert again.postorder[node] == index.postorder[node]


@settings(max_examples=20, deadline=None)
@given(labelled_dags(), st.sampled_from([1, 32]))
def test_rtcf_round_trip(graph, gap):
    import tempfile
    from pathlib import Path
    index = IntervalTCIndex.build(graph, gap=gap)
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "index.rtcf"
        save_rtcf(index.freeze(), path)
        mapped = load_rtcf(path, verify=True)
        assert len(mapped) == len(index)
        for node in graph:
            assert mapped.successors(node) == index.successors(node)
            assert mapped.predecessors(node) == index.predecessors(node)
        mapped.close()


@settings(max_examples=20)
@given(labelled_dags())
def test_json_round_trip_of_updated_index(graph):
    """Persist -> load -> update -> persist -> load stays exact."""
    index = IntervalTCIndex.build(graph, gap=8)
    first = index_from_dict(index_to_dict(index))
    anchor = next(iter(graph.nodes()))
    first.add_node("zz-new", parents=[anchor])
    second = index_from_dict(index_to_dict(first))
    second.check_invariants()
    second.verify()
    assert second.reachable(anchor, "zz-new")
