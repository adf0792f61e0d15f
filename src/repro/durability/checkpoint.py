"""Atomic checkpoints of the index state, versioned and checksummed.

A checkpoint is the JSON snapshot the plain savers already produce
(:func:`~repro.core.serialize.index_to_dict` /
:func:`~repro.core.serialize.hybrid_to_dict`) wrapped in a small header
and published atomically (temp + fsync + rename via
:func:`~repro.durability.atomic.atomic_write_bytes`).  The header
carries:

* ``format_version`` — readers reject unknown versions;
* ``engine`` — ``"interval"`` or ``"hybrid"``, so recovery rebuilds the
  right class;
* ``wal_seq`` — the last WAL sequence number folded into the payload;
  recovery replays strictly newer records on top;
* ``payload_crc`` — CRC-32 of the canonical payload encoding, so a
  bit-flipped generation is detected and skipped rather than loaded.

File names encode the covered sequence number
(``checkpoint-<seq:016d>.json``), which both orders generations and
lets rotation decide, without opening anything, which WAL segments are
still needed: a segment may be deleted only when every record in it is
``<=`` the *oldest retained* checkpoint's ``wal_seq`` — keeping enough
log to fall back a full generation when the newest checkpoint fails its
checksum.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.durability.atomic import RealFS, atomic_write_bytes
from repro.errors import CorruptFileError, ReproError

CHECKPOINT_KIND = "durable-checkpoint"
CHECKPOINT_FORMAT_VERSION = 1
CHECKPOINT_PREFIX = "checkpoint-"
CHECKPOINT_SUFFIX = ".json"
#: Optional zero-copy sidecar next to a generation: the engine's frozen
#: snapshot in RTCF form (see :mod:`repro.core.rtcf`), so readers can
#: ``mmap`` the checkpointed closure without replaying or rebuilding.
SIDECAR_SUFFIX = ".rtcf"
WAL_PREFIX = "wal-"
WAL_SUFFIX = ".log"


def checkpoint_name(wal_seq: int) -> str:
    return f"{CHECKPOINT_PREFIX}{wal_seq:016d}{CHECKPOINT_SUFFIX}"


def sidecar_path_for(checkpoint_path) -> str:
    """The RTCF sidecar path belonging to a checkpoint path."""
    root = os.fspath(checkpoint_path)
    if root.endswith(CHECKPOINT_SUFFIX):
        root = root[:-len(CHECKPOINT_SUFFIX)]
    return root + SIDECAR_SUFFIX


def wal_name(first_seq: int) -> str:
    return f"{WAL_PREFIX}{first_seq:016d}{WAL_SUFFIX}"


def _parse_generation(name: str, prefix: str, suffix: str) -> Optional[int]:
    if not (name.startswith(prefix) and name.endswith(suffix)):
        return None
    stem = name[len(prefix):-len(suffix)]
    if not stem.isdigit():
        return None
    return int(stem)


def list_checkpoints(directory) -> List[Tuple[int, str]]:
    """``(wal_seq, path)`` pairs, ascending by covered sequence."""
    return _list_generations(directory, CHECKPOINT_PREFIX, CHECKPOINT_SUFFIX)


def list_segments(directory) -> List[Tuple[int, str]]:
    """``(first_seq, path)`` pairs for every WAL segment, ascending."""
    return _list_generations(directory, WAL_PREFIX, WAL_SUFFIX)


def _list_generations(directory, prefix: str,
                      suffix: str) -> List[Tuple[int, str]]:
    root = Path(directory)
    found: List[Tuple[int, str]] = []
    if not root.is_dir():
        return found
    for entry in root.iterdir():
        seq = _parse_generation(entry.name, prefix, suffix)
        if seq is not None:
            found.append((seq, str(entry)))
    found.sort()
    return found


def payload_checksum(payload: dict) -> int:
    """CRC-32 over the canonical (sorted, compact) payload encoding."""
    canonical = json.dumps(payload, sort_keys=True,
                           separators=(",", ":")).encode("utf-8")
    return zlib.crc32(canonical)


def engine_document(engine) -> Tuple[str, dict]:
    """``(engine kind, payload)`` for either supported engine class."""
    from repro.core.hybrid import HybridTCIndex
    from repro.core.index import IntervalTCIndex
    from repro.core.serialize import hybrid_to_dict, index_to_dict
    if isinstance(engine, HybridTCIndex):
        return "hybrid", hybrid_to_dict(engine)
    if isinstance(engine, IntervalTCIndex):
        return "interval", index_to_dict(engine)
    raise ReproError(
        f"cannot checkpoint engine of type {type(engine).__name__}")


def write_checkpoint(directory, engine, wal_seq: int, *,
                     fs: Optional[RealFS] = None,
                     frozen_sidecar: bool = False) -> str:
    """Publish one generation atomically; returns its path.

    ``frozen_sidecar=True`` additionally publishes the engine's frozen
    snapshot as ``checkpoint-<seq>.rtcf`` next to the JSON generation,
    with the same atomic-rename discipline and its own per-section
    CRCs.  The sidecar is a read-side convenience — recovery always
    replays from the JSON + WAL, because only those carry the mutable
    state — but a query fleet can ``open_index`` the sidecar and serve
    the checkpointed closure straight off shared mapped pages.  The
    snapshot is stored in rank space, so every numbering mode (fractional
    included) publishes one.
    """
    kind, payload = engine_document(engine)
    document = {
        "kind": CHECKPOINT_KIND,
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "engine": kind,
        "wal_seq": wal_seq,
        "payload_crc": payload_checksum(payload),
        "payload": payload,
    }
    path = os.path.join(os.fspath(directory), checkpoint_name(wal_seq))
    atomic_write_bytes(path, json.dumps(document).encode("utf-8"), fs=fs,
                       label="checkpoint")
    if frozen_sidecar:
        from repro.core.rtcf import rtcf_bytes
        index = engine.index if kind == "hybrid" else engine
        atomic_write_bytes(sidecar_path_for(path),
                           rtcf_bytes(index.freeze()), fs=fs,
                           label="checkpoint-sidecar")
    return path


def load_checkpoint(path):
    """Validate and rebuild one generation.

    Returns ``(engine, wal_seq, engine_kind)``.  Every failure mode —
    unreadable JSON, wrong kind or version, checksum mismatch, a payload
    the deserialisers cannot rebuild — raises
    :class:`~repro.errors.CorruptFileError`; recovery treats that as
    "skip this generation, fall back to an older one".
    """
    from repro.core.serialize import hybrid_from_dict, index_from_dict
    try:
        raw = Path(path).read_bytes()
    except OSError as error:
        raise CorruptFileError(path, f"unreadable: {error}") from error
    try:
        document = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise CorruptFileError(path, f"not valid JSON: {error}") from error
    if not isinstance(document, dict) \
            or document.get("kind") != CHECKPOINT_KIND:
        raise CorruptFileError(path, "not a durable-checkpoint document")
    version = document.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CorruptFileError(
            path, f"unsupported checkpoint version {version!r}")
    payload = document.get("payload")
    wal_seq = document.get("wal_seq")
    if not isinstance(payload, dict) or not isinstance(wal_seq, int):
        raise CorruptFileError(path, "missing payload or wal_seq")
    if payload_checksum(payload) != document.get("payload_crc"):
        raise CorruptFileError(path, "payload checksum mismatch")
    kind = document.get("engine")
    try:
        if kind == "hybrid":
            engine = hybrid_from_dict(payload)
        elif kind == "interval":
            engine = index_from_dict(payload)
        else:
            raise CorruptFileError(path, f"unknown engine kind {kind!r}")
    except CorruptFileError:
        raise
    except (ReproError, KeyError, TypeError, ValueError,
            AttributeError) as error:
        raise CorruptFileError(
            path,
            f"payload does not rebuild ({type(error).__name__}: {error})"
        ) from error
    return engine, wal_seq, kind


def rotate(directory, *, keep: int, fs: RealFS) -> Tuple[List[str], List[str]]:
    """Delete stale generations; returns (checkpoints, segments) removed.

    Keeps the newest ``keep`` checkpoints.  A WAL segment is removed
    only when a later segment exists *and* every record it can contain
    is already covered by the oldest retained checkpoint — so even after
    losing the newest generation to corruption, the older one still has
    its full replay tail on disk.
    """
    removed_checkpoints: List[str] = []
    removed_segments: List[str] = []
    checkpoints = list_checkpoints(directory)
    retained = checkpoints[-keep:] if keep > 0 else checkpoints
    for seq, path in checkpoints[:-keep] if keep > 0 else []:
        fs.remove(path)
        removed_checkpoints.append(path)
        sidecar = sidecar_path_for(path)
        if os.path.exists(sidecar):
            fs.remove(sidecar)
    if not retained:
        return removed_checkpoints, removed_segments
    oldest_retained_seq = retained[0][0]
    segments = list_segments(directory)
    for position, (first_seq, path) in enumerate(segments):
        is_last = position == len(segments) - 1
        if is_last:
            break  # the live tail is never deleted
        next_first = segments[position + 1][0]
        if next_first <= oldest_retained_seq + 1:
            fs.remove(path)
            removed_segments.append(path)
    return removed_checkpoints, removed_segments
