"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch the whole family with one ``except`` clause while still
being able to discriminate the common failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the repro package."""


class GraphError(ReproError):
    """A structural problem with a graph (unknown node, duplicate arc...)."""


class NodeNotFoundError(GraphError, KeyError):
    """An operation referenced a node that is not in the graph."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} is not in the graph")
        self.node = node


class ArcNotFoundError(GraphError, KeyError):
    """An operation referenced an arc that is not in the graph."""

    def __init__(self, source: object, destination: object) -> None:
        super().__init__(f"arc ({source!r}, {destination!r}) is not in the graph")
        self.source = source
        self.destination = destination


class CycleError(GraphError):
    """A DAG-only operation was attempted on a cyclic graph."""

    def __init__(self, message: str = "graph contains a cycle", *, cycle: list | None = None) -> None:
        if cycle:
            message = f"{message}: {' -> '.join(repr(n) for n in cycle)}"
        super().__init__(message)
        self.cycle = cycle or []


class IndexStateError(ReproError):
    """The compressed-closure index is in a state that forbids the operation.

    Raised, for example, when an incremental update targets a node the index
    does not know about, or when a tree arc insertion runs out of spare
    postorder numbers and the caller disabled automatic renumbering.
    """


class NumberingExhaustedError(IndexStateError):
    """No free postorder number is available for an insertion.

    Callers may react by renumbering (see
    :meth:`repro.core.index.IntervalTCIndex.renumber`) and retrying.
    """


class StorageError(ReproError):
    """A problem in the simulated secondary-storage layer."""


class PersistenceError(ReproError):
    """A problem reading or writing a persisted artifact.

    Covers index documents, RTCF binary snapshots, write-ahead logs and
    checkpoints.  Loaders never leak raw ``json.JSONDecodeError`` /
    ``KeyError`` / ``struct.error`` — they wrap them in this family so
    callers (and the CLI) can diagnose a bad file without a traceback.
    """


class CorruptFileError(PersistenceError, StorageError):
    """A persisted file failed validation.

    Bad magic, a checksum mismatch, truncation mid-record, or a document
    whose structure does not decode.  Carries the offending ``path`` and
    a one-line ``detail``.  Also a :class:`StorageError`, so a handler
    for storage-layer failures sees damaged files too.
    """

    def __init__(self, path: object, detail: str) -> None:
        super().__init__(f"{path}: {detail}")
        self.path = str(path)
        self.detail = detail


class RecoveryError(PersistenceError):
    """Crash recovery could not reconstruct a consistent index.

    Raised when every checkpoint generation is unusable and the
    write-ahead log does not reach back to the store's creation, or when
    the surviving log is missing records in the middle.
    """


class SimulatedCrash(ReproError):
    """The crash-injection filesystem shim killed the 'process' here.

    Raised by :class:`repro.testing.faults.FaultyFS` at a registered
    crash point after applying the configured data loss (un-fsynced
    bytes truncated or torn).  Real code never raises or catches this;
    the crash-fuzz harness treats it as process death and re-opens the
    store to exercise recovery.
    """

    def __init__(self, point: str, occurrence: int) -> None:
        super().__init__(
            f"simulated crash at {point!r} (occurrence {occurrence})")
        self.point = point
        self.occurrence = occurrence


class TaxonomyError(ReproError):
    """A problem in the knowledge-base taxonomy layer."""
