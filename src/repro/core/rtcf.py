"""RTCF — the binary zero-copy container for frozen closure buffers.

JSON frozen documents (:func:`repro.core.serialize.save_frozen_index`)
re-parse the whole index at every cold start: O(index) text decoding
plus an O(m log m) re-sort of the reverse interval index.  At a million
nodes that is seconds of startup before the first query — and every
server process pays it again, each holding a private copy of the
buffers.

RTCF ("Reachability Transitive Closure, Frozen") persists the
*materialised* query engine instead: every array a
:class:`~repro.core.frozen.FrozenTCIndex` consults at query time — the
CSR offsets, the ``lo``/``hi`` rank runs, the row-keyed ``lo`` buffer,
the full reverse interval index, and the label lookup table — is stored
as a little-endian section that ``numpy.frombuffer`` can adopt straight
out of an ``mmap``.  Loading is O(1) page mapping: no parsing, no
sorting, no per-element conversion; the OS pages the index in on first
touch, and N processes opening the same file share one physical copy of
the pages (the deployment shape a fleet serving millions of users
needs).  The layout-compaction idea follows Munro & Nicholson's succinct
posets: ship the derived structures once, flat, instead of rebuilding
them per process.

File layout (all little-endian)::

    header         magic 'RTCF', format version, flags, node count,
                   interval count, source epoch, section count, CRC-32
                   of the header + section table
    section table  one 32-byte entry per section: section id, dtype
                   code, byte offset, byte length, CRC-32 of the payload
    sections       64-byte-aligned payloads, zero-padded between

Sections (ids in :data:`SECTION_NAMES`): node labels (an ``int64``
array when every label is a non-negative int, else a compact JSON blob
read back through :func:`repro.graph.io.decode_label`), CSR offsets,
interval lows/highs, the row-keyed lows, the reverse interval index
(lo, hi, owner, prefix-max hi), and the optional label->rank lookup
table.  Everything is in rank space, so no postorder number is stored:
section id 2 held them in files written by older releases, and the
reader ignores it when present.

Integrity comes in two tiers.  Structural validation — magic, version,
header checksum, every section in bounds and size-consistent — is
always performed at open and costs a few hundred bytes of reads, so a
truncated file is diagnosed without faulting in the payload.  Full
payload CRC verification (``verify=True``, or :func:`verify_rtcf`)
reads every page and is what ``repro convert`` and the corruption tests
use; the mmap fast path skips it by default because checksumming the
whole file would defeat the zero-copy cold start.

Writes are deterministic — same buffers, same bytes — so
``save -> load -> save`` is bit-stable, which the tests assert.

Typical use::

    from repro.core.rtcf import save_rtcf, load_rtcf

    save_rtcf(index.freeze(), "closure.rtcf")
    frozen = load_rtcf("closure.rtcf")       # O(1): mmap + frombuffer
    frozen.reachable_many(pairs)             # straight off the mapped pages
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import sys
import zlib
from functools import cached_property
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.frozen import (FrozenTCIndex, _int_view, _numpy,
                               _rank_keys_fit_int32)
from repro.durability.atomic import RealFS, atomic_write_bytes
from repro.errors import CorruptFileError, IndexStateError, NodeNotFoundError
from repro.graph.digraph import Node
from repro.graph.io import decode_labels

PathLike = Union[str, Path]

MAGIC = b"RTCF"
FORMAT_VERSION = 1

#: Sections start on 64-byte boundaries: cache-line friendly, and any
#: future dtype is aligned no matter where the previous section ended.
ALIGNMENT = 64

# header: magic, version, flags, num_nodes, num_intervals, epoch,
# section_count, header_crc (CRC-32 of header+table with this field 0)
_HEADER = struct.Struct("<4sHHQQQII")
# section entry: section id, dtype code, offset, byte length, crc, pad
_SECTION = struct.Struct("<IIQQI4x")

FLAG_INT_LABELS = 0x1   # LABELS holds an int64 array, not a JSON blob
FLAG_HAS_LUT = 0x2      # the label->rank lookup table is present

DTYPE_BLOB = 0          # raw bytes (UTF-8 JSON for the label section)
DTYPE_INT32 = 1
DTYPE_INT64 = 2
_DTYPE_SIZES = {DTYPE_INT32: 4, DTYPE_INT64: 8}
_DTYPE_CODES = {DTYPE_INT32: "i", DTYPE_INT64: "q"}

SEC_LABELS = 1
#: Retired: postorder numbers, written by older releases and ignored on
#: read.  The id stays reserved so no new section reuses it.
SEC_NUMBERS = 2
SEC_OFFSETS = 3
SEC_LOWS = 4
SEC_HIGHS = 5
SEC_LOKEYED = 6
SEC_REVLO = 7
SEC_REVHI = 8
SEC_REVOWNER = 9
SEC_REVMAXHI = 10
SEC_LUT = 11

SECTION_NAMES = {
    SEC_LABELS: "labels",
    SEC_NUMBERS: "numbers",
    SEC_OFFSETS: "offsets",
    SEC_LOWS: "lows",
    SEC_HIGHS: "highs",
    SEC_LOKEYED: "lo_keyed",
    SEC_REVLO: "rev_lo",
    SEC_REVHI: "rev_hi",
    SEC_REVOWNER: "rev_owner",
    SEC_REVMAXHI: "rev_maxhi",
    SEC_LUT: "lut",
}

#: Sections every RTCF file must carry (LUT is optional).
_REQUIRED = (SEC_LABELS, SEC_OFFSETS, SEC_LOWS, SEC_HIGHS, SEC_LOKEYED,
             SEC_REVLO, SEC_REVHI, SEC_REVOWNER, SEC_REVMAXHI)

#: Upper bound on the label value the lookup table is worth building
#: for — must match :meth:`FrozenTCIndex._build_lut` so the reference
#: derivation writes the same table a live freeze holds.
_LUT_FLOOR = 65536


def sniff_rtcf(path: PathLike) -> bool:
    """Whether ``path`` exists and starts with the RTCF magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except (OSError, ValueError):
        return False


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------
def _interval_dtype_code(num_nodes: int) -> int:
    """The interval section width, by the frozen engine's own rule
    (:func:`repro.core.frozen._rank_keys_fit_int32`)."""
    return DTYPE_INT32 if _rank_keys_fit_int32(num_nodes) else DTYPE_INT64


def _int_labels(nodes: Sequence) -> bool:
    """Whether every label is a plain non-negative int (bool excluded)."""
    return all(type(node) is int and 0 <= node < 2**63 for node in nodes)


def _pack_ints(values, code: int) -> bytes:
    """Little-endian packing of an int sequence without numpy."""
    from array import array
    typecode = _DTYPE_CODES[code]
    packed = array(typecode, values)
    if packed.itemsize != _DTYPE_SIZES[code]:  # pragma: no cover - exotic ABI
        fmt = "<%d%s" % (len(values), "i" if code == DTYPE_INT32 else "q")
        return struct.pack(fmt, *values)
    if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
        packed.byteswap()
    return packed.tobytes()


def _engine_sections(frozen: FrozenTCIndex, np):
    """Section payloads taken straight from the engine's buffers.

    The frozen engine already holds every derived array an RTCF file
    stores (:meth:`FrozenTCIndex._materialize` is the one recipe),
    and a mapped view holds them as the file's own pages, so nothing is
    recomputed here.  Each interval section keeps its array's width,
    which is how a re-save of a mapped file reproduces it byte for byte.
    """
    if isinstance(frozen, MappedFrozenTCIndex):
        labels = frozen._labels_array
        nodes = frozen._labels_json
    else:
        nodes = frozen._nodes
        labels = (np.asarray(nodes, dtype=np.int64)
                  if frozen._lut is not None or _int_labels(nodes) else None)

    def raw(array):  # the array's bytes, without a copy
        return memoryview(np.ascontiguousarray(array)).cast("B")

    def width(array):
        return DTYPE_INT32 if array.itemsize == 4 else DTYPE_INT64

    sections = [(SEC_OFFSETS, DTYPE_INT64, raw(frozen._off))]
    for section_id, array in ((SEC_LOWS, frozen._lo), (SEC_HIGHS, frozen._hi),
                              (SEC_LOKEYED, frozen._lo_keyed),
                              (SEC_REVLO, frozen._rev_lo),
                              (SEC_REVHI, frozen._rev_hi),
                              (SEC_REVOWNER, frozen._rev_owner),
                              (SEC_REVMAXHI, frozen._rev_maxhi)):
        sections.append((section_id, width(array), raw(array)))

    flags = 0
    if labels is not None:
        flags |= FLAG_INT_LABELS
        sections.insert(0, (SEC_LABELS, DTYPE_INT64, raw(labels)))
        if frozen._lut is not None:
            flags |= FLAG_HAS_LUT
            sections.append((SEC_LUT, DTYPE_INT64, raw(frozen._lut)))
    else:
        blob = json.dumps(list(nodes), separators=(",", ":")).encode("utf-8")
        sections.insert(0, (SEC_LABELS, DTYPE_BLOB, blob))
    return sections, flags


def _derive_sections_stdlib(nodes, offsets, lows, highs):
    """Every section payload from plain buffers, in pure Python.

    The reference the engine-buffer writer is tested against: it
    follows :meth:`FrozenTCIndex._materialize` step by step, so both
    produce the same bytes.
    """
    n = len(nodes)
    code = _interval_dtype_code(n)
    off = [int(value) for value in offsets]
    lo = [int(value) for value in lows]
    hi = [int(value) for value in highs]
    row_of: List[int] = []
    for rank in range(n):
        row_of.extend([rank] * (off[rank + 1] - off[rank]))
    lo_keyed = [row_of[i] * n + lo[i] for i in range(len(lo))]
    order = sorted(range(len(lo)), key=lo.__getitem__)
    rev_lo = [lo[i] for i in order]
    rev_hi = [hi[i] for i in order]
    rev_owner = [row_of[i] for i in order]
    rev_maxhi: List[int] = []
    top = -1
    for value in rev_hi:
        top = value if value > top else top
        rev_maxhi.append(top)

    sections = [
        (SEC_OFFSETS, DTYPE_INT64, _pack_ints(off, DTYPE_INT64)),
        (SEC_LOWS, code, _pack_ints(lo, code)),
        (SEC_HIGHS, code, _pack_ints(hi, code)),
        (SEC_LOKEYED, code, _pack_ints(lo_keyed, code)),
        (SEC_REVLO, code, _pack_ints(rev_lo, code)),
        (SEC_REVHI, code, _pack_ints(rev_hi, code)),
        (SEC_REVOWNER, code, _pack_ints(rev_owner, code)),
        (SEC_REVMAXHI, code, _pack_ints(rev_maxhi, code)),
    ]

    flags = 0
    if _int_labels(nodes):
        flags |= FLAG_INT_LABELS
        sections.insert(0, (SEC_LABELS, DTYPE_INT64,
                            _pack_ints(list(nodes), DTYPE_INT64)))
        top_label = max(nodes) if n else 0
        if n and top_label <= max(_LUT_FLOOR, 4 * n):
            flags |= FLAG_HAS_LUT
            table = [-1] * (top_label + 1)
            for rank, label in enumerate(nodes):
                table[label] = rank
            sections.append((SEC_LUT, DTYPE_INT64,
                             _pack_ints(table, DTYPE_INT64)))
    else:
        blob = json.dumps(list(nodes), separators=(",", ":")).encode("utf-8")
        sections.insert(0, (SEC_LABELS, DTYPE_BLOB, blob))
    return sections, flags


def rtcf_bytes(frozen: FrozenTCIndex) -> bytes:
    """Serialise a frozen engine into one deterministic RTCF byte string.

    The engine (a mapped one included) already holds every section —
    keyed lows, reverse index, lookup table — so its buffers are written
    as they are.
    """
    sections, flags = _engine_sections(frozen, _numpy())
    return _assemble(sections, flags, num_nodes=len(frozen),
                     num_intervals=frozen.num_intervals, epoch=frozen.epoch)


def _assemble(sections, flags: int, *, num_nodes: int, num_intervals: int,
              epoch: int) -> bytes:
    table_offset = _HEADER.size
    payload_start = table_offset + len(sections) * _SECTION.size
    payload_start += (-payload_start) % ALIGNMENT

    entries = []
    body = []
    cursor = payload_start
    for section_id, dtype_code, blob in sections:
        padding = (-cursor) % ALIGNMENT
        body.append(b"\0" * padding)
        cursor += padding
        entries.append(_SECTION.pack(section_id, dtype_code, cursor,
                                     len(blob), zlib.crc32(blob)))
        body.append(blob)
        cursor += len(blob)

    table = b"".join(entries)
    header_zero_crc = _HEADER.pack(MAGIC, FORMAT_VERSION, flags, num_nodes,
                                   num_intervals, epoch, len(sections), 0)
    header_crc = zlib.crc32(header_zero_crc + table)
    header = _HEADER.pack(MAGIC, FORMAT_VERSION, flags, num_nodes,
                          num_intervals, epoch, len(sections), header_crc)
    lead_padding = b"\0" * ((-len(header) - len(table)) % ALIGNMENT)
    return b"".join([header, table, lead_padding, *body])


def save_rtcf(frozen: FrozenTCIndex, path: PathLike, *,
              fs: Optional[RealFS] = None) -> int:
    """Write ``frozen`` to ``path`` atomically; returns bytes written."""
    blob = rtcf_bytes(frozen)
    atomic_write_bytes(path, blob, fs=fs, label="rtcf")
    return len(blob)


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------
class _ParsedHeader:
    __slots__ = ("flags", "num_nodes", "num_intervals", "epoch", "sections")

    def __init__(self, flags, num_nodes, num_intervals, epoch, sections):
        self.flags = flags
        self.num_nodes = num_nodes
        self.num_intervals = num_intervals
        self.epoch = epoch
        #: section id -> (dtype code, offset, nbytes, crc)
        self.sections: Dict[int, Tuple[int, int, int, int]] = sections


def _parse_header(path: PathLike, handle) -> _ParsedHeader:
    """Structural validation: magic, version, header CRC, bounds.

    Reads only the header and section table — a few hundred bytes — so
    opening stays O(1) regardless of index size.  Every failure mode
    raises :class:`~repro.errors.CorruptFileError` with a diagnosis.
    """
    file_size = os.fstat(handle.fileno()).st_size
    raw = handle.read(_HEADER.size)
    if len(raw) < _HEADER.size:
        raise CorruptFileError(path, "truncated header")
    (magic, version, flags, num_nodes, num_intervals, epoch,
     section_count, header_crc) = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise CorruptFileError(path, "not an RTCF file (bad magic)")
    if version != FORMAT_VERSION:
        raise CorruptFileError(
            path, f"unsupported RTCF format version {version}")
    if not 0 < section_count <= 64:
        raise CorruptFileError(
            path, f"implausible section count {section_count}")
    table = handle.read(section_count * _SECTION.size)
    if len(table) < section_count * _SECTION.size:
        raise CorruptFileError(path, "truncated section table")
    zeroed = _HEADER.pack(magic, version, flags, num_nodes, num_intervals,
                          epoch, section_count, 0)
    if zlib.crc32(zeroed + table) != header_crc:
        raise CorruptFileError(path, "header checksum mismatch")

    sections: Dict[int, Tuple[int, int, int, int]] = {}
    payload_floor = _HEADER.size + len(table)
    for position in range(section_count):
        section_id, dtype_code, offset, nbytes, crc = _SECTION.unpack_from(
            table, position * _SECTION.size)
        if dtype_code not in (DTYPE_BLOB, DTYPE_INT32, DTYPE_INT64):
            raise CorruptFileError(
                path, f"unknown dtype code {dtype_code} in section "
                      f"{SECTION_NAMES.get(section_id, section_id)}")
        if offset < payload_floor or offset + nbytes > file_size:
            raise CorruptFileError(
                path, f"section {SECTION_NAMES.get(section_id, section_id)} "
                      f"out of bounds (offset {offset}, {nbytes} bytes, "
                      f"file is {file_size})")
        sections[section_id] = (dtype_code, offset, nbytes, crc)

    for required in _REQUIRED:
        if required not in sections:
            raise CorruptFileError(
                path, f"missing section {SECTION_NAMES[required]}")

    n, m = num_nodes, num_intervals
    expected = {
        SEC_OFFSETS: (n + 1) * 8,
        SEC_LOWS: m, SEC_HIGHS: m, SEC_LOKEYED: m,
        SEC_REVLO: m, SEC_REVHI: m, SEC_REVOWNER: m, SEC_REVMAXHI: m,
    }
    for section_id, want in expected.items():
        dtype_code, _, nbytes, _ = sections[section_id]
        unit = _DTYPE_SIZES.get(dtype_code)
        if unit is None or nbytes != want * (unit if section_id
                                            != SEC_OFFSETS else 1):
            raise CorruptFileError(
                path, f"section {SECTION_NAMES[section_id]} size "
                      f"inconsistent with header counts")
    if flags & FLAG_INT_LABELS:
        if sections[SEC_LABELS][0] != DTYPE_INT64 \
                or sections[SEC_LABELS][2] != n * 8:
            raise CorruptFileError(path, "label section size inconsistent")
    if flags & FLAG_HAS_LUT and SEC_LUT not in sections:
        raise CorruptFileError(path, "lookup table flagged but missing")
    return _ParsedHeader(flags, num_nodes, num_intervals, epoch, sections)


def _verify_sections(path: PathLike, header: _ParsedHeader, data) -> None:
    """Full payload verification: CRC-32 every section (reads all pages)."""
    for section_id, (dtype_code, offset, nbytes, crc) in \
            sorted(header.sections.items()):
        if zlib.crc32(bytes(data[offset:offset + nbytes])) != crc:
            raise CorruptFileError(
                path, f"section {SECTION_NAMES.get(section_id, section_id)} "
                      f"checksum mismatch")


def verify_rtcf(path: PathLike) -> dict:
    """Validate ``path`` end to end and return a section report.

    Used by ``repro stats`` / ``repro convert``; raises
    :class:`~repro.errors.CorruptFileError` on any damage.
    """
    with open(path, "rb") as handle:
        header = _parse_header(path, handle)
        handle.seek(0)
        data = handle.read()
    _verify_sections(path, header, data)
    return {
        "path": str(path),
        "format_version": FORMAT_VERSION,
        "num_nodes": header.num_nodes,
        "num_intervals": header.num_intervals,
        "epoch": header.epoch,
        "int_labels": bool(header.flags & FLAG_INT_LABELS),
        "has_lut": bool(header.flags & FLAG_HAS_LUT),
        "file_bytes": len(data),
        "sections": {
            SECTION_NAMES.get(section_id, str(section_id)): {
                "offset": offset, "nbytes": nbytes,
                "dtype": {DTYPE_BLOB: "blob", DTYPE_INT32: "int32",
                          DTYPE_INT64: "int64"}[dtype_code],
            }
            for section_id, (dtype_code, offset, nbytes, _crc)
            in sorted(header.sections.items())
        },
    }


def _np_section(np, data, header: _ParsedHeader, section_id: int):
    dtype_code, offset, nbytes, _ = header.sections[section_id]
    dtype = np.dtype("<i4") if dtype_code == DTYPE_INT32 else np.dtype("<i8")
    count = nbytes // dtype.itemsize
    if count == 0:
        return np.empty(0, dtype=dtype)
    return np.frombuffer(data, dtype=dtype, count=count, offset=offset)


def _blob_labels(data, header: _ParsedHeader) -> list:
    """The label list of a file whose labels are a JSON blob."""
    _, offset, nbytes, _ = header.sections[SEC_LABELS]
    blob = bytes(data[offset:offset + nbytes])
    try:
        labels = json.loads(blob.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise CorruptFileError(
            header_path(data), f"label blob does not decode: {error}"
        ) from error
    if not isinstance(labels, list):
        raise CorruptFileError(header_path(data), "label blob is not a list")
    # A tuple label is stored as a nested array; without a second "[" in
    # the blob no label needs decoding, and the per-label pass is skipped.
    if blob.find(b"[", 1) != -1:
        labels = decode_labels(labels)
    return labels


def header_path(data) -> str:  # pragma: no cover - diagnostic fallback
    return getattr(data, "name", "<rtcf>")


class MappedFrozenTCIndex(FrozenTCIndex):
    """A :class:`FrozenTCIndex` whose buffers live in an ``mmap``.

    Constructed by :func:`load_rtcf`: every query-path array is a
    ``numpy.frombuffer`` view straight into the mapped file, so opening
    performs no deserialisation and sibling processes share the pages.
    The Python-object tables (the rank->label list and the label->rank
    dict) are materialised lazily, on the first query that actually
    needs node *objects* — point reachability over integer labels runs
    entirely off the map via the stored lookup table.

    The inherited query surface is unchanged; a mapped view is always
    detached (no source index, never stale) and reports the ``epoch``
    recorded in the file header.
    """

    def __init__(self, *, mm, path: str, header: _ParsedHeader, np,
                 labels_blob_nodes: Optional[list]) -> None:
        # Deliberately does NOT call FrozenTCIndex.__init__: buffers are
        # adopted from the map instead of copied and re-derived.
        self._mm = mm
        self._path = path
        self._header = header
        self._num_nodes = header.num_nodes
        self._source = None
        self._source_epoch = header.epoch
        self._off = _np_section(np, mm, header, SEC_OFFSETS)
        self._lo = _np_section(np, mm, header, SEC_LOWS)
        self._hi = _np_section(np, mm, header, SEC_HIGHS)
        self._dtype = self._lo.dtype
        self._lo_keyed = _np_section(np, mm, header, SEC_LOKEYED)
        self._rev_lo = _np_section(np, mm, header, SEC_REVLO)
        self._rev_hi = _np_section(np, mm, header, SEC_REVHI)
        self._rev_owner = _np_section(np, mm, header, SEC_REVOWNER)
        self._rev_maxhi = _np_section(np, mm, header, SEC_REVMAXHI)
        self._lut = (_np_section(np, mm, header, SEC_LUT)
                     if header.flags & FLAG_HAS_LUT else None)
        self._make_views()
        self._lut_v = None if self._lut is None else _int_view(self._lut)
        if header.flags & FLAG_INT_LABELS:
            self._labels_array = _np_section(np, mm, header, SEC_LABELS)
            self._labels_json: Optional[list] = None
        else:
            self._labels_array = None
            self._labels_json = labels_blob_nodes

    # -- lazy Python-object tables -------------------------------------
    # Cached properties, not a ``__getattr__`` hook: a class with one
    # routes every attribute read through it, which made each of a point
    # query's dozen ``self.`` reads slower.
    @cached_property
    def _nodes(self) -> List[Node]:
        if self._labels_array is not None:
            return self._labels_array.tolist()
        return list(self._labels_json)

    @cached_property
    def _id_of(self) -> Dict[Node, int]:
        id_of = {node: rank for rank, node in enumerate(self._nodes)}
        if len(id_of) != self._num_nodes:
            raise CorruptFileError(
                self._path, "duplicate node labels in label section")
        return id_of

    def __len__(self) -> int:
        return self._num_nodes

    def __contains__(self, node: Node) -> bool:
        table = self._lut_v
        if table is not None and type(node) is int:
            return 0 <= node < len(table) and table[node] >= 0
        return node in self._id_of

    def _id(self, node: Node) -> int:
        """Int labels read the lookup table's view, when the file has
        one; every other label is one probe of the label dict."""
        table = self._lut_v
        if table is None or type(node) is not int:
            try:
                return self._id_of[node]
            except KeyError:
                raise NodeNotFoundError(node) from None
        if 0 <= node < len(table):
            rank = table[node]
            if rank >= 0:
                return rank
        raise NodeNotFoundError(node)

    @property
    def path(self) -> str:
        """The backing RTCF file."""
        return self._path

    def close(self) -> None:
        """Unmap the file.

        Every section array and view holds an export on the map, which
        keeps it open, so each is replaced first, with the label tables
        decoded from them, by one :class:`_Unmapped` stand-in: any query
        afterwards raises :class:`~repro.errors.IndexStateError` on its
        first read, so no query pays a check for it.  An array the
        caller still holds (from :meth:`to_buffers`, say) keeps the map
        until it is released.
        """
        closed = _Unmapped(self._path)
        for name in _MAPPED_ATTRIBUTES:
            setattr(self, name, closed)
        try:
            self._mm.close()
        except BufferError:  # pragma: no cover - a caller's array is alive
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"MappedFrozenTCIndex(nodes={self._num_nodes}, "
                f"intervals={self.num_intervals}, path={self._path!r})")


#: What a mapped view holds that reads the map.
_MAPPED_ATTRIBUTES = (
    "_off", "_lo", "_hi", "_lo_keyed", "_rev_lo", "_rev_hi", "_rev_owner",
    "_rev_maxhi", "_lut", "_off_v", "_lo_v", "_hi_v", "_lut_v",
    "_labels_array", "_labels_json", "_nodes", "_id_of")


class _Unmapped:
    """What a closed :class:`MappedFrozenTCIndex` holds in place of its
    arrays, views and label tables: every use raises."""

    __slots__ = ("_path",)

    def __init__(self, path: str) -> None:
        self._path = path

    def _closed(self, *args, **kwargs):
        raise IndexStateError(f"RTCF snapshot {self._path!r} is closed")

    __getattr__ = __getitem__ = __len__ = __iter__ = __bool__ = \
        __contains__ = _closed


def load_rtcf(path: PathLike, *, verify: bool = False) -> FrozenTCIndex:
    """Open an RTCF file, zero-copy via ``mmap``.

    The returned view adopts the mapped pages directly — O(1) open,
    shared across processes.

    ``verify=True`` additionally CRC-checks every section payload
    (reads the whole file); structural validation (magic, version,
    header checksum, section bounds) always runs.
    """
    with open(path, "rb") as handle:
        header = _parse_header(path, handle)
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    try:
        if verify:
            _verify_sections(path, header, mapped)
        labels = (None if header.flags & FLAG_INT_LABELS
                  else _blob_labels(mapped, header))
        return MappedFrozenTCIndex(mm=mapped, path=str(path), header=header,
                                   np=_numpy(), labels_blob_nodes=labels)
    except Exception:
        mapped.close()
        raise
