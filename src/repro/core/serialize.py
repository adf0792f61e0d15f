"""JSON (de)serialisation of built indexes — mutable and frozen.

A compressed closure is a one-time computation "repeatedly used to
efficiently answer queries" (Section 3.2), so persisting it matters.  The
mutable-index document stores the graph, the tree cover (as a parent
map), the postorder numbers and every interval set; loading reconstructs
an identical :class:`~repro.core.index.IntervalTCIndex` without
re-running Alg1 or the propagation pass.

A :class:`~repro.core.frozen.FrozenTCIndex` persists as its raw flat
buffers (:func:`save_frozen_index`; reopened via
:func:`repro.open_index`): loading rehydrates the arrays directly — no graph, tree cover, or interval-set
reconstruction — and only re-derives the reverse interval index with one
O(m log m) sort.  Frozen documents are self-contained; a view loaded this
way has no source index and can never go stale.

Node labels are strings, numbers, or tuples of these; every loader
decodes them with :func:`repro.graph.io.decode_label`.  The virtual root
is encoded as ``None`` in the parent map.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Dict, Union

from repro.core.frozen import FrozenTCIndex
from repro.core.index import IntervalTCIndex
from repro.core.intervals import Interval, IntervalSet
from repro.core.labeling import Labeling
from repro.core.tree_cover import VIRTUAL_ROOT, TreeCover
from repro.durability.atomic import atomic_write_text
from repro.errors import CorruptFileError, ReproError
from repro.graph.digraph import DiGraph
from repro.graph.io import (decode_label, decode_labels, graph_from_dict,
                            graph_to_dict)
from repro.graph.traversal import topological_order

FORMAT_VERSION = 1
FROZEN_FORMAT_VERSION = 1
HYBRID_FORMAT_VERSION = 1
#: Document discriminator for frozen-buffer files.
FROZEN_KIND = "frozen-tc-index"
#: Document discriminator for hybrid (base + delta log) files.
HYBRID_KIND = "hybrid-tc-index"


def _read_document(path: Union[str, Path]) -> dict:
    """Read one JSON document, typing every corruption mode.

    Truncated, garbage, or non-object files raise
    :class:`~repro.errors.CorruptFileError` instead of leaking raw
    ``json.JSONDecodeError``; a missing file still raises
    :class:`FileNotFoundError` (absent and damaged are different
    failures).
    """
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise
    except OSError as error:
        raise CorruptFileError(path, f"unreadable: {error}") from error
    except UnicodeDecodeError as error:
        raise CorruptFileError(path, f"not UTF-8 text: {error}") from error
    try:
        document = json.loads(text)
    except ValueError as error:
        raise CorruptFileError(path, f"not valid JSON: {error}") from error
    if not isinstance(document, dict):
        raise CorruptFileError(
            path, f"expected a JSON object, got {type(document).__name__}")
    return document


def _rebuild(path, loader, document: dict):
    """Run a ``*_from_dict`` loader, wrapping structural failures.

    A document that parses as JSON but does not decode into an index
    (missing keys, wrong shapes) is corrupt from the caller's point of
    view; ``ReproError`` subtypes (version/kind mismatches) pass through
    with their sharper message.
    """
    try:
        return loader(document)
    except ReproError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError,
            IndexError) as error:
        raise CorruptFileError(
            path,
            f"document does not decode ({type(error).__name__}: {error})"
        ) from error


def _encode_number(number) -> object:
    """Postorder numbers are ints, or Fractions under fractional numbering."""
    if isinstance(number, Fraction):
        return {"n": number.numerator, "d": number.denominator}
    return number


def _decode_number(stored) -> object:
    if isinstance(stored, dict):
        return Fraction(stored["n"], stored["d"])
    return stored


def index_to_dict(index: IntervalTCIndex) -> dict:
    """A JSON-safe document capturing the full index state."""
    nodes = list(index.nodes())
    return {
        "format_version": FORMAT_VERSION,
        "policy": index.policy,
        "gap": index.gap,
        "merged": index.merged,
        "numbering": index.numbering,
        "graph": graph_to_dict(index.graph),
        "parent": [[node, None if index.cover.parent[node] is VIRTUAL_ROOT
                    else index.cover.parent[node]] for node in nodes],
        "postorder": [[node, _encode_number(index.postorder[node])]
                      for node in nodes],
        "tree_interval": [[node, [_encode_number(bound) for bound
                                  in index.tree_interval[node]]]
                          for node in nodes],
        "intervals": [[node, [[_encode_number(bound) for bound in interval]
                              for interval in index.intervals[node]]]
                      for node in nodes],
    }


def index_from_dict(document: dict) -> IntervalTCIndex:
    """Rebuild an index from :func:`index_to_dict` output.

    JSON converts non-string dict keys, so all per-node tables are stored
    as pair lists.
    """
    kind = document.get("kind")
    if kind is not None:
        raise ReproError(
            f"document holds a {kind!r} engine, not a mutable index; "
            "open it with repro.open_index")
    version = document.get("format_version")
    if version != FORMAT_VERSION:
        raise ReproError(f"unsupported index document version {version!r}")
    graph: DiGraph = graph_from_dict(document["graph"])

    parent = {decode_label(node): (VIRTUAL_ROOT if stored is None
                                   else decode_label(stored))
              for node, stored in document["parent"]}
    children: Dict = {VIRTUAL_ROOT: []}
    for node in graph.nodes():
        children.setdefault(node, [])
    postorder = {decode_label(node): _decode_number(number)
                 for node, number in document["postorder"]}
    for node, chosen in parent.items():
        children.setdefault(chosen, []).append(node)
    for child_list in children.values():
        child_list.sort(key=lambda node: postorder[node])
    order = topological_order(graph)
    cover = TreeCover(parent=parent, children=children, order=order,
                      policy=document["policy"])

    tree_interval = {decode_label(node):
                     Interval(*(_decode_number(bound) for bound in bounds))
                     for node, bounds in document["tree_interval"]}
    intervals = {
        decode_label(node): IntervalSet(
            Interval(*(_decode_number(bound) for bound in interval))
            for interval in stored)
        for node, stored in document["intervals"]
    }
    labeling = Labeling(postorder=postorder, tree_interval=tree_interval,
                        intervals=intervals, gap=document["gap"])
    return IntervalTCIndex(graph, cover, labeling, policy=document["policy"],
                           merged=document["merged"],
                           numbering=document.get("numbering", "integer"))


def save_index(index: IntervalTCIndex, path: Union[str, Path]) -> None:
    """Write the index to ``path`` as JSON (atomically: temp + rename)."""
    atomic_write_text(path, json.dumps(index_to_dict(index)))


# ----------------------------------------------------------------------
# frozen buffers
# ----------------------------------------------------------------------
def frozen_to_dict(frozen: FrozenTCIndex) -> dict:
    """A JSON-safe document holding the frozen engine's flat buffers."""
    buffers = frozen.to_buffers()
    return {
        "format_version": FROZEN_FORMAT_VERSION,
        "kind": FROZEN_KIND,
        "epoch": buffers.get("epoch", 0),
        "nodes": buffers["nodes"],
        "offsets": buffers["offsets"],
        "lows": buffers["lows"],
        "highs": buffers["highs"],
    }


def frozen_from_dict(document: dict) -> FrozenTCIndex:
    """Rehydrate a frozen engine from :func:`frozen_to_dict` output.

    The CSR buffers are adopted as-is (no closure or tree-cover rebuild);
    only the derived reverse interval index is re-sorted.  A ``numbers``
    field, written by older releases, is ignored.
    """
    if document.get("kind") != FROZEN_KIND:
        raise ReproError(
            "document does not hold frozen buffers; "
            "open it with repro.open_index")
    version = document.get("format_version")
    if version != FROZEN_FORMAT_VERSION:
        raise ReproError(f"unsupported frozen document version {version!r}")
    return FrozenTCIndex.from_buffers(
        nodes=decode_labels(document["nodes"]),
        offsets=document["offsets"],
        lows=document["lows"],
        highs=document["highs"],
        epoch=document.get("epoch", 0),
    )


def save_frozen_index(frozen: FrozenTCIndex, path: Union[str, Path], *,
                      format: str = "json") -> None:
    """Write a frozen engine to ``path`` atomically.

    ``format="json"`` writes the textual buffer document (portable,
    human-inspectable);
    ``format="rtcf"`` writes the binary zero-copy container
    (:mod:`repro.core.rtcf`), which :func:`repro.open_index` reopens
    through ``mmap`` in O(1).
    """
    if format == "json":
        atomic_write_text(path, json.dumps(frozen_to_dict(frozen)))
    elif format == "rtcf":
        from repro.core.rtcf import save_rtcf
        save_rtcf(frozen, path)
    else:
        raise ReproError(
            f"unknown frozen format {format!r}; choose 'json' or 'rtcf'")


def _load_frozen_index(path: Union[str, Path]) -> FrozenTCIndex:
    from repro.core.rtcf import load_rtcf, sniff_rtcf
    if sniff_rtcf(path):
        return load_rtcf(path)
    return _rebuild(path, frozen_from_dict, _read_document(path))


# ----------------------------------------------------------------------
# hybrid engine (base buffers + delta log)
# ----------------------------------------------------------------------
def hybrid_to_dict(hybrid: "HybridTCIndex") -> dict:
    """A JSON-safe document capturing base snapshot, delta log and truth.

    Persisting all three means a warm restart skips recompilation
    entirely: the base buffers rehydrate like a frozen document, the
    mutable index reloads its interval sets, and the delta log replays
    the difference — no freeze, no Alg1, no propagation pass.
    """
    state = hybrid.to_state()
    return {
        "format_version": HYBRID_FORMAT_VERSION,
        "kind": HYBRID_KIND,
        "index": index_to_dict(hybrid.index),
        "base": frozen_to_dict(hybrid.base),
        "delta": {
            "arcs": [[source, destination]
                     for source, destination in state["delta_arcs"]],
            "nodes": state["delta_nodes"],
            "cost": state["delta_cost"],
            "tainted": state["tainted"],
        },
        "settings": state["settings"],
    }


#: Overlay settings that documents written by older releases carry but
#: :meth:`HybridTCIndex.restore` no longer takes; dropped on read.
_RETIRED_HYBRID_SETTINGS = ("delete_cost", "auto_compact_on_query")


def hybrid_from_dict(document: dict) -> "HybridTCIndex":
    """Rehydrate a hybrid engine from :func:`hybrid_to_dict` output."""
    from repro.core.hybrid import HybridTCIndex
    if document.get("kind") != HYBRID_KIND:
        raise ReproError(
            "document does not hold a hybrid engine; "
            "open it with repro.open_index")
    version = document.get("format_version")
    if version != HYBRID_FORMAT_VERSION:
        raise ReproError(f"unsupported hybrid document version {version!r}")
    index = index_from_dict(document["index"])
    base = frozen_from_dict(document["base"])
    delta = document["delta"]
    settings = {name: value
                for name, value in document.get("settings", {}).items()
                if name not in _RETIRED_HYBRID_SETTINGS}
    return HybridTCIndex.restore(
        index, base,
        delta_arcs=[(decode_label(source), decode_label(destination))
                    for source, destination in delta["arcs"]],
        delta_nodes=decode_labels(delta["nodes"]),
        delta_cost=delta["cost"],
        tainted=delta["tainted"],
        **settings,
    )


def save_hybrid_index(hybrid: "HybridTCIndex",
                      path: Union[str, Path]) -> None:
    """Write a hybrid engine (base + delta log) to ``path`` atomically."""
    atomic_write_text(path, json.dumps(hybrid_to_dict(hybrid)))


def _load_any(path: Union[str, Path]):
    """Load whichever engine kind ``path`` holds (magic sniff + ``kind``).

    The dispatch behind :func:`repro.open_index`: binary RTCF containers
    are recognised by magic and opened through ``mmap``; JSON documents
    dispatch on their ``kind`` discriminator; documents without one are
    mutable-index documents.  A kind this version does not read (a
    retired format such as the old chain-cover or 2-hop label document)
    raises :class:`~repro.errors.ReproError` naming it.
    """
    from repro.core.rtcf import load_rtcf, sniff_rtcf
    if sniff_rtcf(path):
        return load_rtcf(path)
    document = _read_document(path)
    kind = document.get("kind")
    if kind == FROZEN_KIND:
        return _rebuild(path, frozen_from_dict, document)
    if kind == HYBRID_KIND:
        return _rebuild(path, hybrid_from_dict, document)
    if kind is not None:
        raise ReproError(
            f"{path}: unknown index document kind {kind!r}; rebuild the "
            "index from its graph")
    return _rebuild(path, index_from_dict, document)
