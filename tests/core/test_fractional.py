"""Tests for fractional (rational) postorder numbering — the §4 footnote.

"While assigning postorder numbers to nodes ... one could use real
numbers instead of integers."  Under fractional numbering a slot always
exists between any two rationals, so insertion never renumbers: existing
labels are frozen for the life of the index.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.index import IntervalTCIndex
from repro.core.serialize import index_from_dict, index_to_dict
from repro.errors import IndexStateError
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_dag
from repro.graph.traversal import reachable_from


def build_fractional(graph, **kwargs):
    kwargs.setdefault("gap", 2)
    kwargs.setdefault("numbering", "fractional")
    return IntervalTCIndex.build(graph, **kwargs)


class TestConstruction:
    def test_initial_numbers_are_integers(self, paper_dag):
        index = build_fractional(paper_dag)
        assert all(isinstance(number, int) or number.denominator == 1
                   for number in index.postorder.values())
        index.verify()

    def test_gap_one_rejected(self, paper_dag):
        with pytest.raises(IndexStateError):
            IntervalTCIndex.build(paper_dag, gap=1, numbering="fractional")

    def test_unknown_numbering_rejected(self, paper_dag):
        with pytest.raises(IndexStateError):
            IntervalTCIndex.build(paper_dag, numbering="imaginary")


class TestRenumberGapRefused:
    """``renumber(gap=1)`` would leave zero-width leaf intervals with
    nothing to subdivide, so the next insert under a leaf would renumber
    after all (or raise with ``auto_renumber=False``)."""

    def test_refused_before_any_state_changes(self, diamond):
        index = build_fractional(diamond)
        index.journal = []
        frozen = index.freeze()
        before = (dict(index.postorder), index.gap, index.renumber_count,
                  index.epoch)
        with pytest.raises(IndexStateError, match="gap >= 2"):
            index.renumber(1)
        assert (dict(index.postorder), index.gap, index.renumber_count,
                index.epoch) == before
        assert index.journal == []
        assert not frozen.is_stale()

    def test_inserts_never_renumber_after_an_allowed_renumber(self, diamond):
        index = build_fractional(diamond, auto_renumber=False)
        index.renumber(2)
        for step in range(20):
            index.add_node(("leaf", step), parents=["d"])
        assert index.renumber_count == 1
        index.verify()


class TestMergeRefused:
    """Merging turns integer neighbours ``[a, h]``, ``[h+1, b]`` into
    ``[a, b]``, and a fractional insert can then land in the seam
    ``(h, h+1)``: the combination is refused wherever it would arise."""

    def test_build_refused(self):
        # Unrefused, inserts under this build left nodes 2, 5 and 24
        # "reaching" a new node numbered 25/2 through a merged [11, 18].
        graph = random_dag(30, 2.0, random.Random(3))
        with pytest.raises(IndexStateError, match="merging"):
            IntervalTCIndex.build(graph, gap=2, numbering="fractional",
                                  merge=True)

    def test_merge_intervals_refused(self, diamond):
        index = build_fractional(diamond)
        with pytest.raises(IndexStateError, match="merging"):
            index.merge_intervals()
        assert not index.merged
        index.verify()

    def test_loading_a_merged_fractional_document_refused(self, diamond):
        document = index_to_dict(build_fractional(diamond))
        document["merged"] = True
        with pytest.raises(IndexStateError, match="merging"):
            index_from_dict(document)


class TestFrozenLabels:
    def test_deep_chain_never_renumbers(self, diamond):
        index = build_fractional(diamond)
        frozen = dict(index.postorder)
        parent = "d"
        for step in range(50):
            index.add_node(("deep", step), parents=[parent])
            parent = ("deep", step)
        for node, number in frozen.items():
            assert index.postorder[node] == number
        index.check_invariants()
        index.verify()

    def test_wide_fan_never_renumbers(self, diamond):
        index = build_fractional(diamond)
        frozen = dict(index.postorder)
        for step in range(50):
            index.add_node(("wide", step), parents=["d"])
        for node, number in frozen.items():
            assert index.postorder[node] == number
        index.verify()

    def test_numbers_become_fractions(self, diamond):
        index = build_fractional(diamond)
        index.add_node("x", parents=["d"])
        index.add_node("y", parents=["x"])
        assert isinstance(index.postorder["y"], Fraction)
        assert index.reachable("a", "y")

    def test_numbers_stay_strictly_ordered(self, diamond):
        index = build_fractional(diamond)
        for step in range(30):
            index.add_node(("s", step), parents=["d"])
        numbers = sorted(index.postorder.values())
        assert all(first < second for first, second in zip(numbers, numbers[1:]))


class TestDeletionsStillWork:
    def test_mixed_stream(self):
        import random
        rng = random.Random(7)
        index = build_fractional(random_dag(25, 2, 7))
        for step in range(50):
            nodes = list(index.nodes())
            roll = rng.random()
            if roll < 0.5:
                index.add_node(("m", step),
                               parents=rng.sample(nodes, k=min(2, len(nodes))))
            elif roll < 0.7 and index.graph.num_arcs > 5:
                index.remove_arc(*rng.choice(list(index.graph.arcs())))
            elif roll < 0.9:
                source, destination = rng.sample(nodes, 2)
                if not index.reachable(destination, source) and \
                        not index.graph.has_arc(source, destination):
                    index.add_arc(source, destination)
            elif len(nodes) > 4:
                index.remove_node(rng.choice(nodes))
        index.check_invariants()
        index.verify()


class TestStatsAndIntrospection:
    def test_stats_report_numbering(self, diamond):
        index = build_fractional(diamond)
        assert index.stats().numbering == "fractional"

    def test_explain_works_with_fractions(self, diamond):
        from repro.core.explain import describe, explain_reachability
        index = build_fractional(diamond)
        index.add_node("x", parents=["d"])
        index.add_node("y", parents=["x"])
        assert "reaches" in explain_reachability(index, "a", "y")
        assert "IntervalTCIndex over" in describe(index)

    def test_iter_successors_with_fractions(self, diamond):
        index = build_fractional(diamond)
        for step in range(6):
            index.add_node(("f", step), parents=["d"])
        assert set(index.iter_successors("a")) == index.successors("a")


class TestSerialization:
    def test_fractions_round_trip(self, diamond):
        index = build_fractional(diamond)
        index.add_node("x", parents=["d"])
        index.add_node("y", parents=["x"])
        again = index_from_dict(index_to_dict(index))
        assert again.numbering == "fractional"
        assert again.postorder["y"] == index.postorder["y"]
        for node in index.nodes():
            assert again.successors(node) == index.successors(node)
        again.add_node("z", parents=["y"])   # still updatable after loading
        again.verify()


@settings(max_examples=25)
@given(st.integers(2, 12), st.integers(0, 5000),
       st.lists(st.integers(0, 10 ** 6), max_size=12))
def test_fractional_matches_ground_truth(n, seed, insert_picks):
    graph = random_dag(n, min(1.5, (n - 1) / 2), seed)
    index = build_fractional(graph)
    for counter, pick in enumerate(insert_picks):
        nodes = sorted(index.nodes(), key=str)
        index.add_node(("p", counter), parents=[nodes[pick % len(nodes)]])
    index.check_invariants()
    for source in index.nodes():
        assert index.successors(source) == reachable_from(index.graph, source)
