"""Named, deliberately injected bugs for mutation-testing the harness.

A fuzzing harness that never fires is worse than none.  Each fault here
monkeypatches one update-path behaviour into a realistic bug — the kind
a wrong refactor of :mod:`repro.core.updates` would introduce — so tests
can assert the fuzzer *catches* it, the shrinker minimises it, and the
crash file replays it.  Faults are context managers and always restore
the patched attribute:

* ``keep-subsumed`` — interval insertion and the propagation kernel
  (builds and recomputes) stop discarding subsumed intervals, breaking
  the Section 3.2 elimination rule (caught by the subsumption audit);
  in rank space the kernel also stops coalescing, so a direct frozen
  build keeps nested runs and answers wrongly (caught by the
  differential check);
* ``cutoff-propagation`` — non-tree arc insertion updates the arc's
  source but never walks the predecessor lists, losing reachability
  upstream (caught by the differential check);
* ``stale-freeze`` — mutations stop bumping the version counter, so
  frozen views silently serve stale answers (caught by the staleness
  audit);
* ``leak-used-numbers`` — the free-range ledger hands out the parent's
  first *used* slot as well, corrupting gap accounting (caught by the
  gap audit).

Crash files record the fault name that produced them, so replay can
re-install the same bug and prove the trace still (or no longer) fails.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import ReproError


@contextmanager
def _patched(owner, attribute: str, replacement) -> Iterator[None]:
    original = getattr(owner, attribute)
    setattr(owner, attribute, replacement)
    try:
        yield
    finally:
        setattr(owner, attribute, original)


@contextmanager
def _keep_subsumed() -> Iterator[None]:
    from repro.core import propagation
    from repro.core.intervals import IntervalSet

    original_add = IntervalSet.add

    def buggy_add(self, interval):
        lo, hi = interval
        if lo > hi:
            raise ReproError(f"invalid interval [{lo},{hi}]: lo > hi")
        # Bug: append without subsumption elimination (then keep sorted by
        # lo so membership queries still mostly work).
        from bisect import bisect_left
        position = bisect_left(self._los, lo)
        if position < len(self._los) and self._los[position] == lo \
                and self._his[position] == hi:
            return False
        self._los.insert(position, lo)
        self._his.insert(position, hi)
        return True

    def buggy_merge_scalar(pairs, coalesce=False):
        # Bug: every run survives, sorted by lo, in either mode.
        return sorted((lo, -neg_hi) for lo, neg_hi in pairs)

    def buggy_sweep(np, los, his, owners, coalesce=False):
        # Bug: every run survives, ordered by (owner, lo), in either mode.
        order = np.lexsort((his, los, owners))
        return los[order], his[order], owners[order]

    with _patched(IntervalSet, "add", buggy_add), \
            _patched(propagation, "_merge_scalar", buggy_merge_scalar), \
            _patched(propagation, "_sweep", buggy_sweep):
        yield
    del original_add


@contextmanager
def _cutoff_propagation() -> Iterator[None]:
    from repro.core import updates

    original = updates.add_non_tree_arc

    def buggy_add_non_tree_arc(index, source, destination):
        from repro.errors import CycleError, GraphError, NodeNotFoundError
        if source not in index.postorder:
            raise NodeNotFoundError(source)
        if destination not in index.postorder:
            raise NodeNotFoundError(destination)
        if source == destination:
            raise GraphError(f"self-loop ({source!r}, {source!r}) is not allowed")
        if index.graph.has_arc(source, destination):
            return
        if index.reachable(destination, source):
            raise CycleError(
                f"arc ({source!r}, {destination!r}) would create a cycle")
        index._invalidate()
        index.graph.add_arc(source, destination)
        # Bug: the source absorbs the destination's intervals, but the
        # upward walk over predecessor lists never happens.
        index.intervals[source].add_all(list(index.intervals[destination]))

    with _patched(updates, "add_non_tree_arc", buggy_add_non_tree_arc):
        yield
    del original


@contextmanager
def _stale_freeze() -> Iterator[None]:
    from repro.core.index import IntervalTCIndex

    def buggy_invalidate(self) -> None:
        pass  # Bug: mutations no longer stale frozen views.

    with _patched(IntervalTCIndex, "_invalidate", buggy_invalidate):
        yield


@contextmanager
def _leak_used_numbers() -> Iterator[None]:
    from repro.core import updates

    original = updates.free_ranges_under

    def buggy_free_ranges_under(index, parent) -> List[Tuple[int, int]]:
        ranges = list(original(index, parent))
        from repro.core.tree_cover import VIRTUAL_ROOT
        if parent is not VIRTUAL_ROOT:
            # Bug: also offer the parent's own (used!) number as free space.
            ranges.append((index.postorder[parent], index.postorder[parent]))
        return ranges

    with _patched(updates, "free_ranges_under", buggy_free_ranges_under):
        yield


#: Registry of injectable faults, keyed by CLI / crash-file name.
FAULTS: Dict[str, Callable[[], "contextmanager"]] = {
    "keep-subsumed": _keep_subsumed,
    "cutoff-propagation": _cutoff_propagation,
    "stale-freeze": _stale_freeze,
    "leak-used-numbers": _leak_used_numbers,
}


@contextmanager
def injected_fault(name: Optional[str]) -> Iterator[None]:
    """Install the named fault for the duration of the block.

    ``None`` (or ``"none"``) is a no-op, so callers can wrap
    unconditionally.
    """
    if name is None or name == "none":
        yield
        return
    try:
        fault = FAULTS[name]
    except KeyError:
        raise ReproError(
            f"unknown fault {name!r}; known: {sorted(FAULTS)}") from None
    with fault():
        yield


# ----------------------------------------------------------------------
# crash-point fault injection (the durability subsystem's shim)
# ----------------------------------------------------------------------
#: Every crash site the durability layer registers, in rough execution
#: order.  ``wal.append.mid-write`` is synthesised inside the shim's
#: ``write`` (a torn write: only a prefix of the record reaches the
#: file); ``checkpoint.drop-rename`` kills *during* ``os.replace`` with
#: the rename dropped — the classic lost-publish crash.  The crash-fuzz
#: sweep (:mod:`repro.testing.crashfuzz`) asserts recovery after a kill
#: at every one of these.
CRASH_POINTS: Tuple[str, ...] = (
    "wal.append.pre-write",
    "wal.append.mid-write",
    "wal.append.pre-sync",
    "wal.append.post-sync",
    "checkpoint.pre-temp",
    "checkpoint.temp.mid-write",
    "checkpoint.pre-rename",
    "checkpoint.drop-rename",
    "checkpoint.post-rename",
    "checkpoint.post-rotate",
)


def flip_byte(path, offset: int, mask: int = 0xFF) -> None:
    """XOR one byte of ``path`` in place (bit-rot simulation for tests)."""
    import os
    size = os.path.getsize(path)
    if not 0 <= offset < size:
        raise ReproError(
            f"flip offset {offset} outside file of {size} bytes")
    if not 1 <= mask <= 0xFF:
        raise ReproError(f"mask must flip at least one bit, got {mask:#x}")
    with open(path, "r+b") as handle:
        handle.seek(offset)
        original = handle.read(1)[0]
        handle.seek(offset)
        handle.write(bytes([original ^ mask]))


class FaultyFS:
    """Crash-injection filesystem shim for the durability layer.

    Substitutes for :class:`repro.durability.atomic.RealFS`.  Configure
    with a crash point name (and which occurrence of it); when execution
    reaches it, the shim simulates power loss — every file it touched is
    truncated back to its last-fsynced length *plus a random prefix of
    the un-fsynced bytes* (real disks persist partial un-synced writes,
    which is exactly how torn WAL tails arise) — and raises
    :class:`~repro.errors.SimulatedCrash`.  The harness treats that as
    process death and re-opens the store to exercise recovery.

    Two points need special staging: ``<label>.mid-write`` crashes with
    only a prefix of one logical ``write`` issued, and
    ``checkpoint.drop-rename`` crashes with the rename itself discarded
    (the temp file stays, the target is never replaced).
    """

    def __init__(self, *, crash_at: Optional[str] = None,
                 occurrence: int = 1, rng=None) -> None:
        import random
        from repro.durability.atomic import RealFS
        self._real = RealFS()
        self.crash_at = crash_at
        self.occurrence = occurrence
        self.rng = rng if rng is not None else random.Random(0)
        #: point name -> times reached (including the crashing visit).
        self.hits: Dict[str, int] = {}
        self.crashed = False
        #: path -> bytes known durable (fsynced or pre-existing).
        self._synced_len: Dict[str, int] = {}
        self._handles: Dict[int, str] = {}

    # -- crash machinery ------------------------------------------------
    def _note(self, point: str) -> bool:
        """Count a visit; True when this visit must crash."""
        count = self.hits.get(point, 0) + 1
        self.hits[point] = count
        return (not self.crashed and point == self.crash_at
                and count >= self.occurrence)

    def crash_point(self, name: str) -> None:
        if self._note(name):
            self._crash(name)

    def _crash(self, point: str) -> None:
        """Simulate power loss: roll every touched file back to a state
        a real disk could be in, then die."""
        import os
        from repro.errors import SimulatedCrash
        self.crashed = True
        # Handles die with the process.  Every shim write is flushed
        # eagerly, so closing here adds no bytes — it just stops the
        # harness leaking file descriptors across hundreds of crashes.
        for handle_id in list(self._handles):
            self._handles.pop(handle_id, None)
        for path, synced in self._synced_len.items():
            try:
                size = os.path.getsize(path)
            except OSError:
                continue
            if size > synced:
                # Un-fsynced bytes: the crash persists an arbitrary
                # prefix of them (0 = clean loss, partial = torn tail).
                keep = self.rng.randint(0, size - synced)
                with open(path, "r+b") as handle:
                    handle.truncate(synced + keep)
        raise SimulatedCrash(point, self.hits.get(point, 1))

    def _track(self, path: str) -> None:
        import os
        if path not in self._synced_len:
            try:
                self._synced_len[path] = os.path.getsize(path)
            except OSError:
                self._synced_len[path] = 0

    # -- the RealFS surface ---------------------------------------------
    def open_append(self, path: str):
        handle = self._real.open_append(path)
        self._track(str(path))
        self._handles[id(handle)] = str(path)
        return handle

    def open_write(self, path: str):
        handle = self._real.open_write(path)
        self._synced_len.setdefault(str(path), 0)
        self._handles[id(handle)] = str(path)
        return handle

    def write(self, handle, data: bytes, *, label: str = "") -> None:
        mid = label + ".mid-write"
        if self._note(mid):
            # Torn write: a strict prefix of this record reaches the
            # file, then the process dies.
            cut = self.rng.randint(0, max(len(data) - 1, 0))
            self._real.write(handle, data[:cut])
            handle.flush()  # OS-buffered, NOT fsynced: may still be lost
            self._crash(mid)
        self._real.write(handle, data, label=label)
        # Flush to the OS so the file size reflects the write; durability
        # is still governed by _synced_len until fsync.
        handle.flush()

    def fsync(self, handle) -> None:
        self._real.fsync(handle)
        path = self._handles.get(id(handle))
        if path is not None:
            import os
            self._synced_len[path] = os.path.getsize(path)

    def close(self, handle) -> None:
        self._real.close(handle)
        self._handles.pop(id(handle), None)

    def replace(self, source: str, destination: str, *,
                label: str = "") -> None:
        drop = label + ".drop-rename"
        if self._note(drop):
            self._crash(drop)  # crash with the rename never issued
        self._real.replace(source, destination)
        # The rename is durable once the directory is fsynced; model the
        # destination as fully synced (checkpoint temp files are fsynced
        # before the rename).
        import os
        try:
            self._synced_len[str(destination)] = os.path.getsize(destination)
        except OSError:  # pragma: no cover - destination just written
            pass
        self._synced_len.pop(str(source), None)

    def remove(self, path: str) -> None:
        self._real.remove(path)
        self._synced_len.pop(str(path), None)

    def fsync_dir(self, path: str) -> None:
        self._real.fsync_dir(path)
