"""Cross-subsystem integration scenarios.

Each test wires several layers together the way a real deployment would:
graph generators feed indexes, indexes feed disk snapshots, the KB
layers sit on the taxonomy, the algebra queries the relations, and
everything round-trips through persistence.
"""

import random

import pytest

from repro.core.batch import apply_diff
from repro.core.condensation import CondensedIndex
from repro.core.hybrid import HybridTCIndex
from repro.core.index import IntervalTCIndex
from repro.core.serialize import save_frozen_index, save_index
from repro.factory import open_index
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_hierarchy
from repro.kb import ABox, Classifier, InheritanceEngine, Taxonomy
from repro.storage import (
    Alpha,
    BinaryRelation,
    ClosureDatabase,
    Compose,
    MaterializedClosureView,
    Rel,
)


class TestIndexLifecycle:
    """Build -> update -> persist -> reload -> update -> disk-serve."""

    def test_full_lifecycle(self, tmp_path):
        rng = random.Random(42)
        base = random_hierarchy(120, rng=7)
        graph = DiGraph(
            nodes=(f"n{node}" for node in base.nodes()),
            arcs=((f"n{s}", f"n{d}") for s, d in base.arcs()),
        )
        index = IntervalTCIndex.build(graph, gap=32)

        # A burst of online updates.
        for step in range(40):
            nodes = list(index.nodes())
            index.add_node(f"online{step}", parents=[rng.choice(nodes)])
        index.remove_node("online0")

        # Persist as JSON, reload, keep updating.
        json_path = tmp_path / "lifecycle.json"
        save_index(index, json_path)
        reloaded = open_index(json_path, engine="interval")
        first_arc = next(iter(reloaded.graph.arcs()))
        apply_diff(reloaded,
                   f"+ n3 late-arrival\n- {first_arc[0]} {first_arc[1]}\n")
        reloaded.check_invariants()
        reloaded.verify()

        # Freeze to the binary format and serve queries off the map.
        rtcf_path = tmp_path / "lifecycle.rtcf"
        save_frozen_index(reloaded.freeze(), rtcf_path, format="rtcf")
        mapped = open_index(rtcf_path)
        for node in list(reloaded.nodes())[:30]:
            assert mapped.successors(node) == reloaded.successors(node)
            assert mapped.predecessors(node) == reloaded.predecessors(node)


class TestKnowledgeBaseStack:
    """Classifier + taxonomy + ABox + inheritance on one index."""

    def test_classified_kb_with_instances(self):
        classifier = Classifier()
        classifier.define("vehicle", features=["moves"])
        classifier.define("motorized", features=["moves", "engine"])
        classifier.define("car", features=["moves", "engine", "four-wheels"])
        classifier.define("bicycle", features=["moves", "pedals"])

        taxonomy = classifier.taxonomy
        box = ABox(taxonomy)
        box.assert_instance("herbie", "car")
        box.assert_instance("roadster", "bicycle")

        # Instance retrieval follows the *inferred* hierarchy.
        assert box.instances_of("vehicle") == {"herbie", "roadster"}
        assert box.instances_of("motorized") == {"herbie"}

        engine = InheritanceEngine(taxonomy)
        engine.set_property("vehicle", "taxed", False)
        engine.set_property("motorized", "taxed", True)
        assert engine.effective_property("car", "taxed") is True
        assert engine.effective_property("bicycle", "taxed") is False

        # Logical deletion hides a branch without touching the closure.
        taxonomy.ignore("motorized")
        assert box.instances_of("vehicle") == {"herbie", "roadster"}
        assert "motorized" not in taxonomy.superconcepts("car")
        taxonomy.restore("motorized")
        classifier.check_lattice_consistency()


class TestDatabaseStack:
    """Relations + views + algebra + condensation in one flow."""

    def test_supply_chain(self, tmp_path):
        db = ClosureDatabase()
        db.create_relation("supplies", materialize=True, tuples=[
            ("mine", "smelter"), ("smelter", "mill"), ("mill", "factory"),
            ("factory", "dealer"),
        ])
        db.create_relation("owns", tuples=[
            ("conglomerate", "mine"), ("conglomerate", "mill"),
        ])

        # Materialised view answers chains instantly.
        assert db.closure("supplies").query("mine", "dealer")

        # Cross-relation algebra: who transitively feeds what the
        # conglomerate owns?  owns . inverse would be cyclic-free here;
        # compose ownership with supply closure.
        fed_by_owned = db.evaluate(Compose(Rel("owns"), Alpha(Rel("supplies"))))
        assert ("conglomerate", "dealer") in fed_by_owned

        # Persistence round trip preserves both data and views.
        db.insert("supplies", "dealer", "customer")
        db.save(tmp_path / "supply")
        restored = ClosureDatabase.load(tmp_path / "supply")
        assert restored.closure("supplies").query("mine", "customer")

    def test_cyclic_relation_through_condensation(self):
        # A relation with a feedback loop cannot feed IntervalTCIndex
        # directly; CondensedIndex handles it.
        relation = BinaryRelation([
            ("a", "b"), ("b", "c"), ("c", "a"),  # cycle
            ("c", "d"),
        ])
        index = CondensedIndex.build(relation.to_graph())
        assert index.reachable("a", "d")
        assert index.reachable("b", "a")
        assert not index.reachable("d", "a")


class TestViewVersusAlgebra:
    """The materialised view and the algebra must agree tuple-for-tuple."""

    def test_agreement_under_updates(self):
        rng = random.Random(9)
        view = MaterializedClosureView.over(BinaryRelation(), gap=16)
        values = [f"v{i}" for i in range(12)]
        for _ in range(40):
            a, b = rng.sample(values, 2)
            if view.query(b, a):
                continue  # would close a cycle; the view refuses
            view.insert(a, b)
        # Algebra computes the closure from scratch; the view maintained
        # it incrementally.  Same relation, same answer set.
        from repro.storage.algebra import AlgebraEngine
        engine = AlgebraEngine({"r": view.relation})
        closure = engine.evaluate(Alpha(Rel("r")))
        for a in view.relation.domain():
            for b in view.relation.domain():
                assert ((a, b) in closure) == view.query(a, b), (a, b)


class TestWhereUsedOverDatabaseGraph:
    def test_where_used_on_bom(self):
        relation = BinaryRelation([
            ("assembly", "sub1"), ("assembly", "sub2"),
            ("sub1", "bolt"), ("sub2", "bolt"), ("sub2", "nut"),
        ])
        # Thresholds high enough that the new part stays in the overlay.
        index = HybridTCIndex.build(relation.to_graph(), max_delta=100,
                                    max_ratio=100.0)
        assert index.predecessors("bolt", reflexive=False) == \
            {"assembly", "sub1", "sub2"}
        index.add_node("washer", parents=["sub1"])
        assert index.delta_nodes == {"washer"}
        assert "assembly" in index.predecessors("washer")
        assert index.predecessors("washer", reflexive=False) == \
            {"assembly", "sub1"}
        index.verify()


class TestDeterminismAcrossLayers:
    def test_same_input_same_artifacts(self, tmp_path):
        """Two independent builds produce byte-identical persisted output."""
        def build_bytes(tag: str) -> bytes:
            graph = DiGraph([("r", "a"), ("r", "b"), ("a", "c"), ("b", "c")])
            index = IntervalTCIndex.build(graph, gap=4)
            path = tmp_path / f"{tag}.rtcf"
            save_frozen_index(index.freeze(), path, format="rtcf")
            return path.read_bytes()

        assert build_bytes("first") == build_bytes("second")
