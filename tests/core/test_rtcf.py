"""RTCF binary container: round-trip fidelity, bit-stability, zero-copy
semantics, staleness metadata, and the corruption matrix.

The corruption tests mirror the durability suite's style: parametrized
truncation at every structural boundary plus targeted bit flips, each
required to raise the typed :class:`~repro.errors.CorruptFileError`
diagnosis — never a silently wrong index.
"""

import json
import os
import random

import pytest

from repro.core.frozen import FrozenTCIndex, _rank_runs_python
from repro.core.index import IntervalTCIndex
from repro.core.rtcf import (DTYPE_INT32, DTYPE_INT64, MAGIC,
                             MappedFrozenTCIndex, _assemble,
                             _derive_sections_stdlib, _interval_dtype_code,
                             load_rtcf, rtcf_bytes, save_rtcf, sniff_rtcf,
                             verify_rtcf)
from repro.core.serialize import save_frozen_index
from repro.errors import (CorruptFileError, IndexStateError,
                          NodeNotFoundError, ReproError)
from repro.factory import open_index
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_dag
from repro.testing.faults import flip_byte

def small_graph() -> DiGraph:
    return DiGraph(arcs=[("a", "b"), ("b", "c"), ("b", "d"), ("a", "e"),
                         ("e", "d"), ("c", "f")])


def int_graph(num_nodes: int = 120, seed: int = 11) -> DiGraph:
    return random_dag(num_nodes, 2.5, random.Random(seed))


def saved(tmp_path, graph, name="engine.rtcf"):
    path = str(tmp_path / name)
    frozen = IntervalTCIndex.build(graph).freeze()
    save_rtcf(frozen, path)
    return path, frozen


class TestRoundTrip:
    @pytest.mark.parametrize("graph_factory", [small_graph, int_graph])
    def test_queries_survive_the_cycle(self, tmp_path, graph_factory):
        graph = graph_factory()
        path, frozen = saved(tmp_path, graph)
        reopened = load_rtcf(path)
        nodes = sorted(graph.nodes(), key=repr)
        for node in nodes:
            assert reopened.successors(node) == frozen.successors(node)
            assert reopened.predecessors(node) == frozen.predecessors(node)
        pairs = [(s, d) for s in nodes[:15] for d in nodes[:15]]
        assert reopened.reachable_many(pairs) == frozen.reachable_many(pairs)
        assert len(reopened) == len(frozen)
        assert set(reopened.nodes()) == set(frozen.nodes())

    def test_save_load_save_is_bit_stable(self, tmp_path):
        path, frozen = saved(tmp_path, int_graph())
        blob = rtcf_bytes(frozen)
        assert blob == rtcf_bytes(load_rtcf(path))
        # and through the generic frozen saver too
        second = str(tmp_path / "again.rtcf")
        save_frozen_index(load_rtcf(path), second, format="rtcf")
        assert open(second, "rb").read() == blob

    def test_tuple_labels_round_trip(self, tmp_path):
        """Tuple labels (JSON arrays in the label blob) come back as
        tuples; a string that merely contains "[" stays a string."""
        graph = DiGraph([(("s", 0), ("t", 1)), (("t", 1), ("t", 2)),
                         (("t", 2), "x[1]")])
        path, frozen = saved(tmp_path, graph)
        reopened = load_rtcf(path)
        assert reopened.reachable(("s", 0), ("t", 2))
        assert reopened.successors(("t", 1)) == {("t", 1), ("t", 2), "x[1]"}
        assert set(reopened.nodes()) == set(graph.nodes())
        assert rtcf_bytes(reopened) == rtcf_bytes(frozen)

    def test_empty_index(self, tmp_path):
        path, frozen = saved(tmp_path, DiGraph())
        reopened = load_rtcf(path)
        assert len(reopened) == 0
        assert list(reopened.nodes()) == []
        assert "ghost" not in reopened

    def test_sniff(self, tmp_path):
        path, _ = saved(tmp_path, small_graph())
        assert sniff_rtcf(path)
        other = tmp_path / "not.rtcf"
        other.write_text("{}")
        assert not sniff_rtcf(str(other))
        assert not sniff_rtcf(str(tmp_path / "absent.rtcf"))

    def test_fractional_numbering_is_rejected(self, tmp_path):
        index = IntervalTCIndex.build(small_graph(), numbering="fractional",
                                      gap=4)
        index.add_node("g", ["a"])  # force a Fraction into the numbering
        with pytest.raises(ReproError, match="fractional"):
            rtcf_bytes(index.freeze())

    def test_unknown_format_name_rejected(self, tmp_path):
        frozen = IntervalTCIndex.build(small_graph()).freeze()
        with pytest.raises(ReproError, match="unknown frozen format"):
            save_frozen_index(frozen, str(tmp_path / "x.bin"), format="cbor")


class TestMappedView:
    def test_open_index_routes_by_magic_and_extension(self, tmp_path):
        path, frozen = saved(tmp_path, small_graph())
        engine = open_index(path)
        assert isinstance(engine, MappedFrozenTCIndex)
        assert engine.successors("a") == frozen.successors("a")
        # extensionless file still routes by magic
        plain = str(tmp_path / "noext")
        os.rename(path, plain)
        assert isinstance(open_index(plain), MappedFrozenTCIndex)

    def test_open_index_refuses_mutable_coercion(self, tmp_path):
        path, _ = saved(tmp_path, small_graph())
        with pytest.raises(ReproError, match="frozen"):
            open_index(path, engine="interval")

    def test_int_label_point_queries_use_the_stored_lut(self, tmp_path):
        graph = int_graph(80)
        path, frozen = saved(tmp_path, graph)
        mapped = load_rtcf(path)
        assert mapped._lut is not None
        nodes = sorted(graph.nodes())
        for node in nodes[:20]:
            assert mapped.reachable(nodes[0], node) == \
                frozen.reachable(nodes[0], node)
        assert nodes[0] in mapped and (max(nodes) + 7) not in mapped
        with pytest.raises(NodeNotFoundError):
            mapped.reachable(max(nodes) + 7, nodes[0])
        with pytest.raises(NodeNotFoundError):
            mapped.reachable(nodes[0], -3)

    def test_verified_load_and_report(self, tmp_path):
        path, _ = saved(tmp_path, int_graph(50))
        assert load_rtcf(path, verify=True).num_intervals > 0
        report = verify_rtcf(path)
        assert report["num_nodes"] == 50
        assert report["int_labels"] and report["has_lut"]
        assert set(report["sections"]) >= {"labels", "numbers", "offsets",
                                           "lows", "highs", "lut"}

    def test_close_releases_the_map(self, tmp_path):
        path, _ = saved(tmp_path, small_graph())
        mapped = load_rtcf(path)
        assert mapped.reachable("a", "f")
        del mapped  # the arrays hold buffer references; drop them first
        second = load_rtcf(path)
        second.close()


def reference_bytes(index: IntervalTCIndex) -> bytes:
    """RTCF bytes by the reference route: the per-interval freeze loop
    and the pure-Python section derivation."""
    used = index.used_numbers
    nodes = [index.node_of_number[number] for number in used]
    offsets, lows, highs = _rank_runs_python(
        used, [index.intervals[node] for node in nodes])
    sections, flags = _derive_sections_stdlib(nodes, used, offsets, lows,
                                              highs)
    return _assemble(sections, flags, num_nodes=len(nodes),
                     num_intervals=len(lows), epoch=index.epoch)


def churned(graph: DiGraph, seed: int) -> IntervalTCIndex:
    rng = random.Random(seed)
    index = IntervalTCIndex.build(graph, gap=4)
    nodes = sorted(graph.nodes(), key=repr)
    for _ in range(40):
        source, destination = rng.sample(nodes, 2)
        if index.graph.has_arc(source, destination):
            index.remove_arc(source, destination)
        elif not index.reachable(destination, source):
            index.add_arc(source, destination)
    return index


class TestEngineBufferWriter:
    """The writer emits the engine's own buffers; every file must
    equal the reference route's, and a mapped view must re-save to the
    file it was opened from."""

    @pytest.mark.parametrize("labels", ["strings", "dense-ints",
                                        "sparse-ints"])
    def test_mapped_resave_is_byte_identical(self, tmp_path, labels):
        graph = int_graph(90, seed=4)
        if labels == "strings":
            graph = DiGraph(arcs=[(f"n{u}", f"n{v}")
                                  for u, v in graph.arcs()])
        elif labels == "sparse-ints":  # too sparse for a lookup table
            graph = DiGraph(arcs=[(u * 10**6, v * 10**6)
                                  for u, v in graph.arcs()])
        index = churned(graph, seed=8)
        blob = rtcf_bytes(index.freeze())
        assert blob == reference_bytes(index)
        path = str(tmp_path / "closure.rtcf")
        save_rtcf(index.freeze(), path)
        mapped = load_rtcf(path)
        assert isinstance(mapped, MappedFrozenTCIndex)
        assert (mapped._lut is not None) == (labels == "dense-ints")
        assert rtcf_bytes(mapped) == blob

    @pytest.mark.parametrize("num_nodes, code", [
        pytest.param(46_340, DTYPE_INT32, id="int32-side"),
        pytest.param(46_341, DTYPE_INT64, id="int64-side")])
    def test_rank_dtype_switch(self, tmp_path, num_nodes, code):
        """Rank keys ``row * n + lo`` fit int32 up to 46,340 nodes; both
        sides of the switch write the reference bytes."""
        import numpy
        arcs = [((child - 1) // 2, child) for child in range(1, num_nodes)]
        arcs += [(node, node + 3) for node in range(0, num_nodes - 3, 997)]
        index = IntervalTCIndex.build(DiGraph(arcs=arcs),
                                      policy="first_parent")
        frozen = index.freeze()
        assert _interval_dtype_code(num_nodes) == code
        assert frozen._dtype == (numpy.int32 if code == DTYPE_INT32
                                 else numpy.int64)
        blob = rtcf_bytes(frozen)
        assert blob == reference_bytes(index)
        path = tmp_path / "closure.rtcf"
        path.write_bytes(blob)
        width = "int32" if code == DTYPE_INT32 else "int64"
        sections = verify_rtcf(str(path))["sections"]
        assert {sections[name]["dtype"] for name in
                ("lows", "highs", "lo_keyed", "rev_owner")} == {width}


class TestStalenessMetadata:
    """Satellite regression: epoch/detach semantics survive the disk."""

    @pytest.mark.parametrize("format", ["json", "rtcf"])
    def test_epoch_round_trips(self, tmp_path, format):
        index = IntervalTCIndex.build(small_graph())
        index.add_node("g", ["a"])
        index.add_arc("g", "b")
        epoch_at_freeze = index.epoch
        assert epoch_at_freeze > 0
        path = str(tmp_path / f"engine.{format}")
        save_frozen_index(index.freeze(), path, format=format)
        reopened = open_index(path)
        assert reopened._source_epoch == epoch_at_freeze
        assert reopened.lag() == 0
        assert not reopened.is_stale()

    @pytest.mark.parametrize("format", ["json", "rtcf"])
    def test_reloaded_view_is_detached(self, tmp_path, format):
        """A reloaded snapshot has no source: later mutations of the
        original index must not stale it, and queries keep working."""
        index = IntervalTCIndex.build(small_graph())
        path = str(tmp_path / f"engine.{format}")
        save_frozen_index(index.freeze(), path, format=format)
        reopened = open_index(path)
        index.add_node("zz", ["a"])  # would stale an attached view
        assert not reopened.is_stale()
        assert reopened.reachable("a", "f")
        detached = reopened.detach()
        assert not detached.is_stale()

    def test_attached_view_still_stales(self):
        """Contrast case: the in-memory contract is unchanged."""
        index = IntervalTCIndex.build(small_graph())
        frozen = index.freeze()
        index.add_node("zz", ["a"])
        assert frozen.is_stale()
        with pytest.raises(IndexStateError):
            frozen.reachable("a", "f")


def _section_boundaries(path):
    """Every structural offset worth cutting at: header, table, each
    section's start, and each section's last byte."""
    report = verify_rtcf(path)
    size = os.path.getsize(path)
    boundaries = {4, 20, 39}  # inside magic / header / section table
    for row in report["sections"].values():
        boundaries.add(row["offset"])
        if row["nbytes"]:
            boundaries.add(row["offset"] + row["nbytes"] - 1)
    return sorted(cut for cut in boundaries if cut < size)


class TestCorruption:
    """Damage must produce a typed diagnosis, never a wrong answer."""

    def test_truncation_at_every_section_boundary(self, tmp_path):
        path, _ = saved(tmp_path, int_graph(40, seed=3))
        for cut in _section_boundaries(path):
            damaged = str(tmp_path / f"cut-{cut}.rtcf")
            with open(path, "rb") as source:
                blob = source.read()
            with open(damaged, "wb") as handle:
                handle.write(blob[:cut])
            with pytest.raises(CorruptFileError):
                load_rtcf(damaged, verify=True)

    def test_magic_flip(self, tmp_path):
        path, _ = saved(tmp_path, small_graph())
        flip_byte(path, 0)
        with pytest.raises(CorruptFileError, match="magic"):
            load_rtcf(path)
        with pytest.raises(CorruptFileError):
            open_index(str(tmp_path / "engine.rtcf"))

    @pytest.mark.parametrize("offset,field", [
        (4, "version"), (8, "num_nodes"), (16, "num_intervals"),
        (32, "section_count")])
    def test_header_field_flip_fails_the_header_crc(self, tmp_path,
                                                    offset, field):
        path, _ = saved(tmp_path, small_graph())
        flip_byte(path, offset, 0x10)
        with pytest.raises(CorruptFileError):
            load_rtcf(path)

    def test_section_table_flip_fails_the_header_crc(self, tmp_path):
        path, _ = saved(tmp_path, small_graph())
        flip_byte(path, 48, 0x04)  # inside the first section entry
        with pytest.raises(CorruptFileError, match="checksum"):
            load_rtcf(path)

    def test_payload_flip_is_caught_by_verification(self, tmp_path):
        path, _ = saved(tmp_path, int_graph(40, seed=5))
        report = verify_rtcf(path)
        target = report["sections"]["lows"]
        flip_byte(path, target["offset"] + target["nbytes"] // 2, 0x20)
        with pytest.raises(CorruptFileError, match="checksum"):
            load_rtcf(path, verify=True)
        with pytest.raises(CorruptFileError):
            verify_rtcf(path)

    def test_not_rtcf_at_all(self, tmp_path):
        path = str(tmp_path / "garbage.rtcf")
        with open(path, "wb") as handle:
            handle.write(b"RTCF")  # magic alone, no header
        with pytest.raises(CorruptFileError, match="truncated header"):
            load_rtcf(path)

    def test_json_frozen_is_not_sniffed_as_rtcf(self, tmp_path):
        path = str(tmp_path / "engine.json")
        save_frozen_index(IntervalTCIndex.build(small_graph()).freeze(),
                          path)
        assert not sniff_rtcf(path)
        assert isinstance(open_index(path), FrozenTCIndex)

    def test_corrupt_error_is_typed(self):
        assert issubclass(CorruptFileError, ReproError)


class TestDurabilitySidecar:
    def test_checkpoint_sidecar_round_trip_and_rotation(self, tmp_path):
        from repro.durability import DurableTCIndex
        directory = str(tmp_path / "store.d")
        with DurableTCIndex.open(directory, keep_checkpoints=1) as store:
            store.add_node("a", [])
            store.add_node("b", ["a"])
            first = store.checkpoint(frozen_sidecar=True)
            sidecar = first[:-len(".json")] + ".rtcf"
            assert os.path.exists(sidecar)
            mapped = open_index(sidecar)
            assert mapped.successors("a") == {"a", "b"}
            store.add_node("c", ["b"])
            store.checkpoint(frozen_sidecar=True)
        remaining = [name for name in os.listdir(directory)
                     if name.endswith(".rtcf")]
        assert len(remaining) == 1  # rotation removed the stale sidecar
        assert os.path.basename(sidecar) not in remaining
