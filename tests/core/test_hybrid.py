"""Tests for the delta-overlay hybrid engine.

The contract under test: every query answers exactly as the write-through
mutable index would, whatever mix of base snapshot, delta overlay, taint
routing and compaction is serving it — and compaction itself is invisible
at the query level.
"""

import pytest

from repro.core.hybrid import HybridTCIndex
from repro.core.index import IntervalTCIndex
from repro.core.serialize import (
    hybrid_from_dict,
    hybrid_to_dict,
    save_hybrid_index,
)
from repro.factory import open_index
from repro.errors import NodeNotFoundError, ReproError
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_dag


def assert_matches_index(hybrid):
    """Every query form agrees with the write-through index."""
    index = hybrid.index
    nodes = sorted(index.nodes(), key=repr)
    for node in nodes:
        assert hybrid.successors(node) == index.successors(node)
        assert hybrid.predecessors(node) == index.predecessors(node)
        assert hybrid.count_successors(node) == index.count_successors(node)
    pairs = [(u, v) for u in nodes for v in nodes]
    expected = [index.reachable(u, v) for u, v in pairs]
    assert hybrid.reachable_many(pairs) == expected
    for (u, v), answer in zip(pairs, expected):
        assert hybrid.reachable(u, v) == answer


class TestConstruction:
    def test_build_snapshots_and_answers(self, paper_dag):
        hybrid = HybridTCIndex.build(paper_dag)
        assert hybrid.reachable("a", "h")
        assert not hybrid.tainted
        assert hybrid.delta_size == 0
        assert_matches_index(hybrid)

    def test_from_index_and_from_arcs(self, diamond):
        index = IntervalTCIndex.build(diamond)
        wrapped = HybridTCIndex.from_index(index)
        assert wrapped.index is index
        direct = HybridTCIndex.from_arcs(diamond.arcs())
        assert_matches_index(wrapped)
        assert_matches_index(direct)

    def test_invalid_settings_rejected(self, diamond):
        index = IntervalTCIndex.build(diamond)
        with pytest.raises(ReproError):
            HybridTCIndex(index, max_delta=0)
        with pytest.raises(ReproError):
            HybridTCIndex(index, max_ratio=0)

    def test_unknown_node_raises(self, diamond):
        hybrid = HybridTCIndex.build(diamond)
        with pytest.raises(NodeNotFoundError):
            hybrid.reachable("a", "nope")
        with pytest.raises(NodeNotFoundError):
            hybrid.successors("nope")


class TestDeltaAdditions:
    def test_added_arc_is_corrected_not_compacted(self, paper_dag):
        hybrid = HybridTCIndex.build(paper_dag, max_delta=100,
                                     max_ratio=100.0)
        base_before = hybrid.base
        assert not hybrid.reachable("g", "d")
        hybrid.add_arc("g", "d")
        assert hybrid.base is base_before  # still serving the old snapshot
        assert hybrid.delta_size == 1
        assert hybrid.reachable("g", "d")
        assert_matches_index(hybrid)

    def test_added_node_reaches_and_is_reached(self, paper_dag):
        hybrid = HybridTCIndex.build(paper_dag, max_delta=100,
                                     max_ratio=100.0)
        hybrid.add_node("new", parents=["e"])
        assert "new" in hybrid
        assert hybrid.reachable("a", "new")
        assert hybrid.reachable("new", "new")
        assert not hybrid.reachable("new", "a")
        assert_matches_index(hybrid)

    def test_chained_delta_arcs(self, chain5):
        hybrid = HybridTCIndex.build(chain5, max_delta=100, max_ratio=100.0)
        hybrid.add_node("x", parents=[4])
        hybrid.add_node("y", parents=["x"])
        hybrid.add_node("z", parents=["y"])
        assert hybrid.reachable(0, "z")
        assert hybrid.predecessors("z") == {0, 1, 2, 3, 4, "x", "y", "z"}
        assert_matches_index(hybrid)

    def test_duplicate_arc_is_a_noop(self, diamond):
        hybrid = HybridTCIndex.build(diamond, max_delta=100, max_ratio=100.0)
        hybrid.add_arc("b", "d")  # already present in the seed graph
        assert hybrid.delta_size == 0
        assert hybrid.delta_cost == 0


class TestDeletionsAndTaint:
    def test_delta_arc_delete_keeps_fast_path(self, paper_dag):
        hybrid = HybridTCIndex.build(paper_dag, max_delta=100,
                                     max_ratio=100.0)
        hybrid.add_arc("g", "d")
        hybrid.remove_arc("g", "d")
        assert not hybrid.tainted
        assert hybrid.delta_size == 0
        assert not hybrid.reachable("g", "d")
        assert_matches_index(hybrid)

    def test_pre_snapshot_arc_delete_taints(self, paper_dag):
        hybrid = HybridTCIndex.build(paper_dag, max_delta=1000,
                                     max_ratio=1000.0)
        hybrid.remove_arc("a", "b")
        assert hybrid.tainted
        assert not hybrid.reachable("a", "b") or \
            hybrid.index.reachable("a", "b")
        assert_matches_index(hybrid)

    def test_delta_node_delete_keeps_fast_path(self, paper_dag):
        hybrid = HybridTCIndex.build(paper_dag, max_delta=100,
                                     max_ratio=100.0)
        hybrid.add_node("tmp", parents=["b", "c"])
        hybrid.remove_node("tmp")
        assert not hybrid.tainted
        assert hybrid.delta_size == 0
        assert "tmp" not in hybrid
        assert_matches_index(hybrid)

    def test_pre_snapshot_node_delete_taints(self, paper_dag):
        hybrid = HybridTCIndex.build(paper_dag, max_delta=1000,
                                     max_ratio=1000.0)
        hybrid.remove_node("d")
        assert hybrid.tainted
        assert "d" not in hybrid
        assert_matches_index(hybrid)

    def test_compaction_clears_taint(self, paper_dag):
        hybrid = HybridTCIndex.build(paper_dag, max_delta=1000,
                                     max_ratio=1000.0)
        hybrid.remove_arc("a", "b")
        assert hybrid.tainted
        assert hybrid.compact()
        assert not hybrid.tainted
        assert_matches_index(hybrid)


class TestCompaction:
    def test_threshold_triggers_compaction(self, paper_dag):
        hybrid = HybridTCIndex.build(paper_dag, max_delta=3, max_ratio=100.0)
        hybrid.add_node("n1", parents=["a"])  # cost 2 -> under threshold
        assert hybrid.compactions == 0
        hybrid.add_node("n2", parents=["a"])  # cost 4 -> crosses 3
        assert hybrid.compactions == 1
        assert hybrid.delta_size == 0
        assert_matches_index(hybrid)

    def test_ratio_threshold_binds_on_small_bases(self, diamond):
        # 4-node base, ratio 0.25 -> threshold 1: every mutation folds.
        hybrid = HybridTCIndex.build(diamond, max_delta=1000, max_ratio=0.25)
        hybrid.add_node("e", parents=["d"])
        assert hybrid.compactions == 1
        assert hybrid.delta_size == 0

    def test_explicit_compact_reports_whether_it_folded(self, paper_dag):
        hybrid = HybridTCIndex.build(paper_dag, max_delta=100,
                                     max_ratio=100.0)
        assert not hybrid.compact()  # empty overlay: nothing to do
        hybrid.add_arc("g", "d")
        assert hybrid.compact()
        assert hybrid.compactions == 1
        assert not hybrid.compact()

    def test_compact_is_query_invisible(self, paper_dag):
        hybrid = HybridTCIndex.build(paper_dag, max_delta=100,
                                     max_ratio=100.0)
        hybrid.add_node("new", parents=["h"])
        hybrid.add_arc("g", "d")
        nodes = sorted(hybrid.index.nodes(), key=repr)
        before = {node: (hybrid.successors(node), hybrid.predecessors(node))
                  for node in nodes}
        assert hybrid.compact()
        for node in nodes:
            assert hybrid.successors(node) == before[node][0]
            assert hybrid.predecessors(node) == before[node][1]

    def test_out_of_band_index_mutation_taints(self, paper_dag):
        hybrid = HybridTCIndex.build(paper_dag, max_delta=1000,
                                     max_ratio=1000.0)
        hybrid.index.add_arc("g", "d")  # bypasses the overlay entirely
        assert hybrid.reachable("g", "d")  # safety valve: exact anyway
        assert hybrid.tainted
        assert_matches_index(hybrid)


class TestBatchAndSemijoins:
    def _populated(self, paper_dag):
        hybrid = HybridTCIndex.build(paper_dag, max_delta=100,
                                     max_ratio=100.0)
        hybrid.add_node("new", parents=["e"])
        hybrid.add_arc("g", "d")
        return hybrid

    def _inputs(self, paper_dag):
        """The overlay-corrected hybrid, then a tainted one that routes
        every query to the write-through index."""
        pristine = paper_dag.copy()  # each index owns and mutates its graph
        clean = self._populated(paper_dag)
        assert not clean.tainted
        tainted = self._populated(pristine)
        tainted.remove_arc("c", "e")  # pre-snapshot arc, before compaction
        assert tainted.tainted and tainted.compactions == 0
        return clean, tainted

    def test_semijoins_match_index(self, paper_dag):
        for hybrid in self._inputs(paper_dag):
            index = hybrid.index
            nodes = sorted(index.nodes(), key=repr)
            sources, destinations = nodes[::2], nodes[1::2]
            expected_from = set()
            for source in sources:
                expected_from |= index.successors(source)
            assert hybrid.reachable_from_set(sources) == expected_from
            expected_to = set()
            for destination in destinations:
                expected_to |= index.predecessors(destination)
            assert hybrid.reaching_set(destinations) == expected_to
            expected_any = any(index.reachable(u, v)
                               for u in sources for v in destinations)
            assert hybrid.any_reachable(sources, destinations) == expected_any
            for u in nodes:
                for v in nodes:
                    expected = not (index.successors(u) & index.successors(v))
                    assert hybrid.are_disjoint(u, v) == expected

    def test_many_forms_match_pointwise(self, paper_dag):
        for hybrid in self._inputs(paper_dag):
            nodes = sorted(hybrid.index.nodes(), key=repr)
            pairs = [(u, v) for u in nodes for v in nodes]
            assert hybrid.reachable_many(pairs) == \
                [hybrid.reachable(u, v) for u, v in pairs]
            assert hybrid.successors_many(nodes) == \
                [hybrid.successors(node) for node in nodes]
            assert hybrid.predecessors_many(nodes) == \
                [hybrid.predecessors(node) for node in nodes]
            assert set(hybrid.iter_successors("a")) == hybrid.successors("a")

    def test_reachable_many_empty_batch(self, diamond):
        hybrid = HybridTCIndex.build(diamond)
        assert hybrid.reachable_many([]) == []


class TestIntrospection:
    def test_stats_and_repr(self, paper_dag):
        hybrid = HybridTCIndex.build(paper_dag, max_delta=100,
                                     max_ratio=100.0)
        hybrid.add_arc("g", "d")
        stats = hybrid.stats()
        assert stats["delta_arcs"] == 1
        assert stats["compactions"] == 0
        assert stats["base"]["num_nodes"] == len(hybrid)
        assert "delta_arcs=1" in repr(hybrid)

    def test_verify_accepts_live_overlay(self, paper_dag):
        hybrid = HybridTCIndex.build(paper_dag, max_delta=100,
                                     max_ratio=100.0)
        hybrid.add_node("new", parents=["b"])
        hybrid.add_arc("g", "d")
        hybrid.verify()

    def test_len_contains_nodes(self, diamond):
        hybrid = HybridTCIndex.build(diamond)
        assert len(hybrid) == 4
        assert "a" in hybrid
        assert set(hybrid.nodes()) == set(diamond.nodes())


class TestPersistence:
    def test_dict_round_trip_preserves_overlay(self, paper_dag):
        hybrid = HybridTCIndex.build(paper_dag, max_delta=100,
                                     max_ratio=100.0)
        hybrid.add_node("new", parents=["e"])
        hybrid.add_arc("g", "d")
        restored = hybrid_from_dict(hybrid_to_dict(hybrid))
        assert restored.delta_arcs == hybrid.delta_arcs
        assert restored.delta_nodes == hybrid.delta_nodes
        assert restored.tainted == hybrid.tainted
        assert_matches_index(restored)
        assert restored.reachable("a", "new")

    def test_file_round_trip_and_load_any(self, tmp_path, paper_dag):
        hybrid = HybridTCIndex.build(paper_dag, max_delta=100,
                                     max_ratio=100.0)
        hybrid.add_arc("g", "d")
        path = tmp_path / "hybrid.json"
        save_hybrid_index(hybrid, path)
        loaded = open_index(path, engine="hybrid")
        assert loaded.reachable("g", "d")
        assert isinstance(open_index(path), HybridTCIndex)

    def test_restored_base_is_pinned(self, tmp_path, paper_dag):
        hybrid = HybridTCIndex.build(paper_dag)
        path = tmp_path / "hybrid.json"
        save_hybrid_index(hybrid, path)
        loaded = open_index(path, engine="hybrid")
        loaded.add_arc("g", "d")  # must not raise staleness
        assert loaded.reachable("g", "d")
        assert_matches_index(loaded)

    def test_tainted_state_survives_round_trip(self, paper_dag):
        hybrid = HybridTCIndex.build(paper_dag, max_delta=1000,
                                     max_ratio=1000.0)
        hybrid.remove_arc("a", "b")
        restored = hybrid_from_dict(hybrid_to_dict(hybrid))
        assert restored.tainted
        assert_matches_index(restored)

    def test_document_with_retired_settings_still_loads(self):
        """Documents and checkpoints written while the overlay still took
        ``delete_cost`` and ``auto_compact_on_query`` carry both keys."""
        document = {
            "format_version": 1, "kind": "hybrid-tc-index",
            "index": {
                "format_version": 1, "policy": "alg1", "gap": 32,
                "merged": False, "numbering": "integer",
                "graph": {"nodes": ["a", "b", "c"],
                          "arcs": [["a", "b"], ["b", "c"]]},
                "parent": [["b", "a"], ["a", None], ["c", "b"]],
                "postorder": [["b", 32], ["a", 64], ["c", 16]],
                "tree_interval": [["b", [1, 32]], ["a", [1, 64]],
                                  ["c", [1, 16]]],
                "intervals": [["b", [[1, 32]]], ["a", [[1, 64]]],
                              ["c", [[1, 16]]]]},
            "base": {"format_version": 1, "kind": "frozen-tc-index",
                     "epoch": 0, "nodes": ["b", "a"], "numbers": [32, 64],
                     "offsets": [0, 1, 2], "lows": [0, 0], "highs": [0, 1]},
            "delta": {"arcs": [["b", "c"]], "nodes": ["c"], "cost": 2,
                      "tainted": False},
            "settings": {"max_delta": 100, "max_ratio": 100.0,
                         "delete_cost": 8, "auto_compact_on_query": False},
        }
        restored = hybrid_from_dict(document)
        assert restored.delta_arcs == (("b", "c"),)
        assert restored.reachable("a", "c")
        assert_matches_index(restored)
        assert "delete_cost" not in hybrid_to_dict(restored)["settings"]

    def test_wrong_kind_rejected(self, paper_dag):
        from repro.core.serialize import index_from_dict, index_to_dict
        index = IntervalTCIndex.build(paper_dag)
        with pytest.raises(ReproError):
            hybrid_from_dict(index_to_dict(index))
        document = hybrid_to_dict(HybridTCIndex.from_index(index))
        with pytest.raises(ReproError):
            index_from_dict(document)


class TestRandomisedChurn:
    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_workload_stays_exact(self, seed):
        import random

        rng = random.Random(seed)
        graph = random_dag(30, 1.8, seed)
        hybrid = HybridTCIndex.build(graph, max_delta=8)
        label = 1000
        for _ in range(120):
            nodes = sorted(hybrid.index.nodes(), key=repr)
            roll = rng.random()
            if roll < 0.35 and len(nodes) > 1:
                source, destination = rng.sample(nodes, 2)
                if not hybrid.index.graph.has_arc(source, destination) \
                        and not hybrid.reachable(destination, source):
                    hybrid.add_arc(source, destination)
            elif roll < 0.55:
                parents = rng.sample(nodes, min(len(nodes), rng.randint(0, 2)))
                hybrid.add_node(label, parents=parents)
                label += 1
            elif roll < 0.65:
                arcs = sorted(hybrid.index.graph.arcs(), key=repr)
                if arcs:
                    hybrid.remove_arc(*rng.choice(arcs))
            elif roll < 0.72 and len(nodes) > 2:
                hybrid.remove_node(rng.choice(nodes))
            elif roll < 0.8:
                hybrid.compact()
            else:
                source = rng.choice(nodes)
                destination = rng.choice(nodes)
                assert hybrid.reachable(source, destination) == \
                    hybrid.index.reachable(source, destination)
        assert_matches_index(hybrid)
        assert hybrid.compactions > 0


class TestSnapshotEpoch:
    """The serving hooks: pinned immutable snapshots and publish epochs."""

    def test_snapshot_is_detached_and_immutable(self, paper_dag):
        hybrid = HybridTCIndex.build(paper_dag, max_delta=1_000_000, max_ratio=1_000_000.0)
        first = hybrid.snapshot()
        assert first is hybrid.base
        before = first.successors("a")
        hybrid.add_node("z", parents=["a"])
        # The pinned snapshot never sees later writes...
        assert "z" not in first
        assert first.successors("a") == before
        # ...while a fresh one does, as a different object.
        second = hybrid.snapshot()
        assert second is not first
        assert "z" in second
        assert "z" in second.successors("a")

    def test_epoch_counts_publishes_not_mutations(self, paper_dag):
        hybrid = HybridTCIndex.build(paper_dag, max_delta=1_000_000, max_ratio=1_000_000.0)
        start = hybrid.epoch
        hybrid.add_node("x1", parents=["a"])
        hybrid.add_node("x2", parents=["x1"])
        hybrid.add_arc("x2", "h")
        assert hybrid.epoch == start  # nothing published yet
        hybrid.snapshot()
        assert hybrid.epoch == start + 1  # one fold for three writes
        # A clean snapshot (no pending delta) publishes nothing new.
        again = hybrid.snapshot()
        assert hybrid.epoch == start + 1
        assert again is hybrid.base

    def test_snapshot_answers_exactly(self, paper_dag):
        hybrid = HybridTCIndex.build(paper_dag, max_delta=1_000_000, max_ratio=1_000_000.0)
        hybrid.add_node("w", parents=["b"])
        hybrid.remove_arc("a", "b")
        snapshot = hybrid.snapshot()
        index = hybrid.index
        nodes = sorted(index.nodes(), key=repr)
        for node in nodes:
            assert snapshot.successors(node) == index.successors(node)
        pairs = [(u, v) for u in nodes for v in nodes]
        assert snapshot.reachable_many(pairs) == \
            [index.reachable(u, v) for u, v in pairs]
