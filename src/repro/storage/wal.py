"""Write-ahead log: length-prefixed ``to_wire`` frames.

Every durable subsystem (object server, revocation feed, naming and
location services, revocation-checker cursors) journals its mutations
through one :class:`WriteAheadLog`. The on-disk format is a sequence of
self-delimiting frames::

    [4-byte big-endian frame length]
    [frame: to_wire(record)]

The frame is the RPC layer's (:func:`repro.util.encoding.to_wire`):
canonical-JSON header, raw ``bytes`` attachments, CRC32 trailer. One
format at rest and on the wire; the frame's own trailer is the record's
checksum, computed over exactly the bytes that were meant to be written.

Durability discipline
---------------------
``append`` writes the frame, flushes, and — unless the log was opened
with ``sync=False`` (tests, throwaway stores) — ``fsync``\\ s the file
descriptor before returning: a record handed back to the caller has
reached the disk, not the page cache. Directory entries are fsynced on
creation so a freshly created log survives a crash of its parent
directory too.

Torn-tail recovery
------------------
A crash mid-``append`` leaves a *torn tail*: a trailing frame that is
truncated, or whose checksum does not match (a partially persisted
frame). On open, the log scans frames from the start; the first frame
that is incomplete or does not decode ends the scan, the file is
physically truncated back to the last valid frame boundary, and the
count of dropped bytes is reported in
:attr:`WriteAheadLog.torn_bytes_dropped`. Only the *suffix* is ever
dropped — a valid prefix record is never discarded — and torn bytes are
never surfaced to callers.

A bad frame in the *middle* of the file costs the same thing — the
suffix from that frame on, reported in ``torn_bytes_dropped`` — because
nothing after a gap can be trusted to follow from what precedes it.

Rewrite
-------
:meth:`WriteAheadLog.rewrite` replaces the whole log with a new record
list: the frames go to ``<path>.tmp``, which is flushed and fsynced,
``os.replace``\\ d onto the live name, and the directory entry is fsynced.
Rename is atomic, so a crash leaves the whole old log or the whole new
one; a stray ``.tmp`` found at open is a rewrite that never committed
and is discarded.

Checksums guard against *accidents* (torn writes, bit rot), not
adversaries: a checksum-valid record is still untrusted input, and
subsystems re-verify signatures on everything they recover (see
:mod:`repro.storage.store` and the per-subsystem recovery paths).
"""

from __future__ import annotations

import os
import struct
from typing import Any, List, Optional

from repro.errors import EncodingError, StorageError
from repro.util.encoding import from_wire, to_wire

__all__ = ["WriteAheadLog", "FRAME_HEADER"]

#: Frame header: the frame's length, unsigned 32-bit big-endian.
FRAME_HEADER = struct.Struct(">I")

#: Sibling a rewrite is staged in before it is renamed onto the log.
TMP_SUFFIX = ".tmp"

#: Refuse absurd lengths outright: a corrupted length prefix must not
#: make the scanner try to allocate gigabytes before concluding "torn".
MAX_RECORD_BYTES = 64 * 1024 * 1024


def _frame(record: Any) -> bytes:
    """*record* as one on-disk frame, behind its length."""
    frame = to_wire(record)
    if len(frame) > MAX_RECORD_BYTES:
        raise StorageError(
            f"WAL record of {len(frame)} bytes exceeds the "
            f"{MAX_RECORD_BYTES}-byte frame limit"
        )
    return FRAME_HEADER.pack(len(frame)) + frame


def _fsync_dir(path: str) -> None:
    """Flush the directory entry so a created or renamed file survives a crash."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # platform without directory fds — best effort
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class WriteAheadLog:
    """An append-only record log with crash-consistent open semantics.

    Opening a log reads and validates every frame (truncating a torn
    tail, see module docstring); the decoded records are handed over
    once by :meth:`take_records` and the log is then positioned for
    appends. It keeps a count of its frames, not decoded copies.
    """

    def __init__(self, path, sync: bool = True) -> None:
        self.path = str(path)
        self.sync = sync
        self.torn_bytes_dropped = 0
        self._closed = False
        self._directory = os.path.dirname(self.path) or "."
        os.makedirs(self._directory, exist_ok=True)
        try:
            os.remove(self.path + TMP_SUFFIX)  # a rewrite that never committed
        except FileNotFoundError:
            pass
        created = not os.path.exists(self.path)
        self._records: List[Any] = []
        valid_end = self._scan_and_truncate()
        self._count = len(self._records)
        self._fh = open(self.path, "ab")
        if self._fh.tell() != valid_end:  # pragma: no cover - defensive
            raise StorageError(
                f"WAL {self.path} moved under us: expected offset {valid_end}, "
                f"found {self._fh.tell()}"
            )
        if created:
            _fsync_dir(self._directory)

    # ------------------------------------------------------------------
    # Open-time scan
    # ------------------------------------------------------------------

    def _scan_and_truncate(self) -> int:
        """Load valid frames; truncate the torn tail; return valid size."""
        if not os.path.exists(self.path):
            return 0
        with open(self.path, "rb") as fh:
            data = fh.read()
        offset = 0
        while offset < len(data):
            frame_end = self._try_frame(data, offset, self._records)
            if frame_end is None:
                break
            offset = frame_end
        if offset < len(data):
            self.torn_bytes_dropped = len(data) - offset
            with open(self.path, "r+b") as fh:
                fh.truncate(offset)
                fh.flush()
                os.fsync(fh.fileno())
        return offset

    @staticmethod
    def _try_frame(data: bytes, offset: int, records: List[Any]) -> Optional[int]:
        """Decode one frame at *offset*; None if torn/corrupt (scan stops)."""
        header_end = offset + FRAME_HEADER.size
        if header_end > len(data):
            return None
        (length,) = FRAME_HEADER.unpack_from(data, offset)
        frame_end = header_end + length
        if length > MAX_RECORD_BYTES or frame_end > len(data):
            return None
        try:
            records.append(from_wire(data[header_end:frame_end]))
        except EncodingError:  # checksum mismatch or not a frame at all
            return None
        return frame_end

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def append(self, record: Any) -> int:
        """Durably append *record*; returns its index in the log."""
        if self._closed:
            raise StorageError(f"WAL {self.path} is closed")
        self._fh.write(_frame(record))
        self._fh.flush()
        if self.sync:
            os.fsync(self._fh.fileno())
        self._count += 1
        return self._count - 1

    def rewrite(self, records: List[Any]) -> None:
        """Atomically replace the whole log with *records* (see module
        docstring): afterwards the file holds exactly their frames."""
        if self._closed:
            raise StorageError(f"WAL {self.path} is closed")
        data = b"".join(_frame(record) for record in records)
        tmp_path = self.path + TMP_SUFFIX
        with open(tmp_path, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, self.path)
        _fsync_dir(self._directory)
        self._fh.close()
        self._fh = open(self.path, "ab")
        self._count = len(records)

    # ------------------------------------------------------------------
    # Reading and lifecycle
    # ------------------------------------------------------------------

    def take_records(self) -> List[Any]:
        """The valid records found at open, in append order — handed
        over once, so a long-lived log does not pin its history."""
        records, self._records = self._records, []
        return records

    def __len__(self) -> int:
        """Frames in the file (found at open + appended since)."""
        return self._count

    def close(self) -> None:
        if self._closed:
            return
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        self._closed = True

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WriteAheadLog({self.path!r}, records={self._count})"
