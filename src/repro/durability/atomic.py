"""Atomic, fsync-disciplined file primitives shared by every writer.

Two things live here, deliberately free of any other ``repro`` imports:

* :class:`RealFS` — a thin indirection over the ``os`` file API.  All
  durability-sensitive writes (WAL appends, checkpoint publication, the
  JSON and RTCF savers) go through one of these objects, so the
  crash-injection shim (:class:`repro.testing.faults.FaultyFS`) can tear
  writes, drop renames, and kill the "process" at registered crash
  points by substituting itself.  On the real implementation every
  ``crash_point`` call is a no-op.
* :func:`atomic_write_bytes` — the one way any module in this repository
  replaces a file: write to a temporary sibling, fsync it, ``rename``
  over the target, fsync the directory.  A crash at any instant leaves
  either the complete old file or the complete new file, never a torn
  mixture — which is exactly the property the previous bare
  ``open().write()`` savers lacked.
"""

from __future__ import annotations

import os
import tempfile
from typing import Optional

from repro.errors import SimulatedCrash


class RealFS:
    """The production filesystem: direct calls, no faults.

    ``label`` arguments name the logical write site (``"wal.append"``,
    ``"checkpoint.temp"``, ...); the fault shim uses them to aim torn
    writes.  They are ignored here.
    """

    def crash_point(self, name: str) -> None:
        """A registered crash site; the fault shim may kill here."""

    def open_append(self, path: str):
        return open(path, "ab")

    def open_write(self, path: str):
        return open(path, "wb")

    def write(self, handle, data: bytes, *, label: str = "") -> None:
        handle.write(data)

    def fsync(self, handle) -> None:
        handle.flush()
        os.fsync(handle.fileno())

    def close(self, handle) -> None:
        handle.close()

    def replace(self, source: str, destination: str, *,
                label: str = "") -> None:
        os.replace(source, destination)

    def remove(self, path: str) -> None:
        os.remove(path)

    def fsync_dir(self, path: str) -> None:
        """Best-effort directory fsync (not supported everywhere)."""
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-specific
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform-specific
            pass
        finally:
            os.close(fd)


#: Shared default instance; durability code does ``fs = fs or REAL_FS``.
REAL_FS = RealFS()


def atomic_write_bytes(path, data: bytes, *, fs: Optional[RealFS] = None,
                       label: str = "save", durable: bool = True) -> None:
    """Replace ``path`` with ``data`` atomically (temp + fsync + rename).

    ``label`` names the crash points (``<label>.pre-temp``,
    ``<label>.temp`` writes, ``<label>.pre-rename``,
    ``<label>.post-rename``) for the fault shim.  ``durable=False`` skips
    the fsyncs (still atomic against concurrent readers, but not against
    power loss) — used by tests that only need the rename semantics.
    """
    fs = fs or REAL_FS
    target = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(target)) or "."
    fd, temp = tempfile.mkstemp(
        prefix=os.path.basename(target) + ".", suffix=".tmp", dir=directory)
    os.close(fd)
    try:
        fs.crash_point(label + ".pre-temp")
        handle = fs.open_write(temp)
        try:
            fs.write(handle, data, label=label + ".temp")
            if durable:
                fs.fsync(handle)
        finally:
            fs.close(handle)
        fs.crash_point(label + ".pre-rename")
        fs.replace(temp, target, label=label)
        fs.crash_point(label + ".post-rename")
        if durable:
            fs.fsync_dir(directory)
    except SimulatedCrash:
        # The simulated process is dead: leave the temp file exactly as
        # the crash left it so recovery sees a realistic directory.
        raise
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise


def atomic_write_text(path, text: str, *, fs: Optional[RealFS] = None,
                      label: str = "save", durable: bool = True) -> None:
    """UTF-8 convenience wrapper over :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode("utf-8"), fs=fs, label=label,
                       durable=durable)
