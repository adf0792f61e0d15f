"""Parametrized corruption matrix: every damage mode recovers exactly or
raises a typed error — never a silently wrong index.

The store fixture journals a fixed op script with a mid-stream
checkpoint, so the tail WAL segment has several records to damage.
Because every script entry journals exactly one record, the oracle state
after sequence ``s`` is the script prefix ``OPS[:s]`` — which is what
each recovered store is compared against.
"""

import json
import os

import pytest

from repro.core.index import IntervalTCIndex
from repro.core.serialize import save_index
from repro.factory import open_index
from repro.durability import DurableTCIndex, list_checkpoints, scan_wal
from repro.durability.wal import RECORD_HEADER, encode_record
from repro.errors import (CorruptFileError, PersistenceError, RecoveryError,
                          ReproError)
from repro.graph.digraph import DiGraph
from repro.testing.faults import flip_byte
from repro.testing.oracle import SetClosureOracle

#: Journal-format ops; each entry lands in the WAL as one record.
OPS = [
    ["add_node", "a", []],
    ["add_node", "b", ["a"]],
    ["add_node", "c", ["a"]],
    ["add_arc", "b", "c"],
    ["add_node", "d", ["b", "c"]],
    ["renumber", 16],
    ["remove_arc", "b", "c"],
    ["add_node", "e", ["d"]],
    ["merge"],
    ["remove_node", "c"],
    ["add_node", "f", ["a", "e"]],
]

CHECKPOINT_AT = 5  # ops journalled before the mid-stream checkpoint


def apply_to_store(store, op):
    kind = op[0]
    if kind == "add_node":
        store.add_node(op[1], op[2])
    elif kind == "add_arc":
        store.add_arc(op[1], op[2])
    elif kind == "remove_arc":
        store.remove_arc(op[1], op[2])
    elif kind == "remove_node":
        store.remove_node(op[1])
    elif kind == "renumber":
        store.renumber(op[1])
    elif kind == "merge":
        store.merge_intervals()


def oracle_after(ops):
    oracle = SetClosureOracle()
    for op in ops:
        kind = op[0]
        if kind == "add_node":
            oracle.add_node(op[1])
            for parent in op[2]:
                oracle.add_arc(parent, op[1])
        elif kind == "add_arc":
            oracle.add_arc(op[1], op[2])
        elif kind == "remove_arc":
            oracle.remove_arc(op[1], op[2])
        elif kind == "remove_node":
            oracle.remove_node(op[1])
        # renumber / merge change the representation, not the relation
    return oracle


def assert_state_is_prefix(store, upto):
    oracle = oracle_after(OPS[:upto])
    assert sorted(store.nodes(), key=repr) == sorted(oracle.nodes(), key=repr)
    for node in oracle.nodes():
        assert set(store.successors(node)) == set(oracle.successors(node))
    store.verify()


@pytest.fixture
def store_dir(tmp_path):
    directory = str(tmp_path / "store.d")
    with DurableTCIndex.open(directory) as store:
        for op in OPS[:CHECKPOINT_AT]:
            apply_to_store(store, op)
        store.checkpoint()
        for op in OPS[CHECKPOINT_AT:]:
            apply_to_store(store, op)
    return directory


def tail_segment(directory):
    """Path and scan of the live tail segment (records after the
    checkpoint)."""
    from repro.durability.checkpoint import list_segments
    path = list_segments(directory)[-1][1]
    return path, scan_wal(path)


def tail_boundaries(scan):
    boundaries = [0]
    for seq, op in scan.records:
        boundaries.append(boundaries[-1] + len(encode_record(seq, op)))
    return boundaries


class TestTailTruncation:
    @pytest.mark.parametrize("kept", range(len(OPS) - CHECKPOINT_AT + 1))
    def test_cut_at_every_record_boundary(self, store_dir, kept):
        """Truncating the tail to ``kept`` whole records recovers exactly
        the checkpoint plus those records."""
        path, scan = tail_segment(store_dir)
        boundaries = tail_boundaries(scan)
        with open(path, "r+b") as handle:
            handle.truncate(boundaries[kept])
        with DurableTCIndex.open(store_dir) as store:
            assert store.last_seq == CHECKPOINT_AT + kept
            assert_state_is_prefix(store, CHECKPOINT_AT + kept)

    @pytest.mark.parametrize("kept", range(len(OPS) - CHECKPOINT_AT))
    def test_cut_mid_record_truncates_torn_tail(self, store_dir, kept):
        """A cut *inside* a record keeps the records before it and
        reports the torn bytes."""
        path, scan = tail_segment(store_dir)
        boundaries = tail_boundaries(scan)
        with open(path, "r+b") as handle:
            handle.truncate(boundaries[kept] + 3)
        with DurableTCIndex.open(store_dir) as store:
            report = store.recovery_report
            assert report.truncated_bytes == 3
            assert report.corruption_detected
            assert_state_is_prefix(store, CHECKPOINT_AT + kept)


class TestTailBitFlips:
    @pytest.mark.parametrize("field_offset,name", [
        (0, "length"), (4, "checksum"), (RECORD_HEADER.size + 1, "payload")])
    @pytest.mark.parametrize("record", [0, 2])
    def test_flip_is_detected_never_silent(self, store_dir, record,
                                           field_offset, name):
        path, scan = tail_segment(store_dir)
        boundaries = tail_boundaries(scan)
        flip_byte(path, boundaries[record] + field_offset, 0x10)
        try:
            store = DurableTCIndex.open(store_dir)
        except (CorruptFileError, RecoveryError):
            return  # typed refusal is a correct outcome
        # A length flip can masquerade as a torn tail; then the store
        # must hold exactly the surviving prefix and say so.
        with store:
            report = store.recovery_report
            assert report.corruption_detected
            assert report.last_seq <= CHECKPOINT_AT + record
            assert_state_is_prefix(store, report.last_seq)


class TestCheckpointDamage:
    def test_flipped_checkpoint_falls_back_and_replays(self, store_dir):
        newest = list_checkpoints(store_dir)[-1][1]
        flip_byte(newest, os.path.getsize(newest) // 2, 0x20)
        with DurableTCIndex.open(store_dir) as store:
            report = store.recovery_report
            assert report.checkpoints_skipped
            assert_state_is_prefix(store, len(OPS))

    def test_deleted_checkpoint_falls_back_and_replays(self, store_dir):
        for _, path in list_checkpoints(store_dir):
            os.remove(path)
        with DurableTCIndex.open(store_dir) as store:
            assert store.recovery_report.started_empty
            assert_state_is_prefix(store, len(OPS))

    def test_truncated_checkpoint_is_skipped(self, store_dir):
        newest = list_checkpoints(store_dir)[-1][1]
        size = os.path.getsize(newest)
        with open(newest, "r+b") as handle:
            handle.truncate(size // 2)
        with DurableTCIndex.open(store_dir) as store:
            assert store.recovery_report.checkpoints_skipped
            assert_state_is_prefix(store, len(OPS))

    def test_unusable_checkpoint_with_rotated_log_refuses(self, tmp_path):
        """No generation loads and the log no longer reaches seq 1: a
        typed error, not a partial answer."""
        directory = str(tmp_path / "store.d")
        with DurableTCIndex.open(directory, keep_checkpoints=1) as store:
            for op in OPS[:CHECKPOINT_AT]:
                apply_to_store(store, op)
            store.checkpoint()
            apply_to_store(store, OPS[CHECKPOINT_AT])
            store.checkpoint()
        for _, path in list_checkpoints(directory):
            os.remove(path)
        with pytest.raises((RecoveryError, PersistenceError)):
            DurableTCIndex.open(directory)


class TestCorruptPlainFiles:
    """The JSON loaders raise typed errors (RTCF's corruption matrix
    lives in ``tests/core/test_rtcf.py``)."""

    def build_index(self):
        graph = DiGraph(arcs=[("a", "b"), ("b", "c"), ("a", "d")])
        return IntervalTCIndex.build(graph)

    def test_truncated_json_index(self, tmp_path):
        path = str(tmp_path / "closure.json")
        save_index(self.build_index(), path)
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[:len(blob) // 2])
        with pytest.raises(CorruptFileError):
            open_index(path, engine="interval")
        with pytest.raises(CorruptFileError):
            open_index(path)

    def test_missing_tables_json(self, tmp_path):
        """Right kind and version, but the payload tables are gone."""
        path = str(tmp_path / "closure.json")
        with open(path, "w") as handle:
            json.dump({"format_version": 1}, handle)
        with pytest.raises(CorruptFileError):
            open_index(path, engine="interval")

    def test_non_dict_json(self, tmp_path):
        path = str(tmp_path / "closure.json")
        with open(path, "w") as handle:
            json.dump([1, 2, 3], handle)
        with pytest.raises(CorruptFileError):
            open_index(path)

    def test_corrupt_error_is_repro_error(self):
        assert issubclass(CorruptFileError, ReproError)
