"""The durable backend every service uses: one journal, rewritten to compact.

One :class:`DurableStore` owns a directory holding exactly one file,
``journal.log`` (:mod:`repro.storage.wal`). Writes are journaled through
:meth:`append` *before* the in-memory mutation is considered durable.
:meth:`compact` is a log rewrite: the owner supplies the shortest record
list, *in its own journal vocabulary*, that rebuilds its live state, and
that list atomically replaces the log — so there is one on-disk format
and recovery has one input, whether or not the log was ever compacted.

A rewritten log opens with one header frame carrying the absolute
sequence number (``seq`` counts every :meth:`append` ever made; a
rewrite is not one) and how many records the rewrite kept.

The directory is exclusive: any other entry — a retired layout's
snapshot file or ``wal.log`` among them — is refused by name, never
read or truncated.

Recovery contract
-----------------
:meth:`recover` returns the one input of every recovery: the records
to replay, oldest first. **The store validates framing and checksums
only.** Recovered payloads are untrusted input — exactly as untrusted
as bytes fetched from a replica — so each subsystem hands
:meth:`replay` its admission path, which re-verifies signatures /
self-certification before anything is served. A record that path
cannot read (not a mapping, an unknown ``op``, a missing or mistyped
field) or that does not check out fails the whole recovery closed with
one exception, :class:`~repro.errors.RecoveryIntegrityError`.
"""

from __future__ import annotations

import os
from typing import Any, Callable, List, Optional

from repro.errors import RecoveryIntegrityError, ReproError, StorageError
from repro.storage.wal import TMP_SUFFIX, WriteAheadLog

__all__ = ["DurableStore"]

WAL_NAME = "journal.log"

#: Key of the header frame that opens a rewritten log.
_HEADER = "wal.rewritten"


class DurableStore:
    """A directory-backed journal for one subsystem: ``seq`` is the
    absolute number of the last appended record, ``journal_length`` the
    appends since the last rewrite."""

    def __init__(
        self,
        directory,
        sync: bool = True,
        compact_every: Optional[int] = 256,
    ) -> None:
        if compact_every is not None and compact_every < 1:
            raise StorageError(
                f"compact_every must be positive or None, got {compact_every}"
            )
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        foreign = set(os.listdir(self.directory)) - {WAL_NAME, WAL_NAME + TMP_SUFFIX}
        if foreign:
            raise StorageError(
                f"{self.directory} holds {min(foreign)!r}, which is not this "
                "store's log (a file of a retired storage layout?) — "
                "refusing to ignore state this version cannot read"
            )
        self.compact_every = compact_every
        self.wal = WriteAheadLog(os.path.join(self.directory, WAL_NAME), sync=sync)
        self._records: Optional[List[Any]] = self.wal.take_records()
        first = self._records[0] if self._records else None
        if isinstance(first, dict) and _HEADER in first:
            del self._records[0]
            try:
                seq, kept = (int(first[_HEADER][k]) for k in ("seq", "records"))
            except (KeyError, TypeError, ValueError) as exc:
                raise StorageError(f"malformed log header {first!r}") from exc
            # A CRC failure inside the kept records (fewer came back
            # than the header counts) loses them, not the appends made.
            self.journal_length = max(0, len(self._records) - kept)
            self.seq = seq + self.journal_length
        else:
            self.seq = self.journal_length = len(self._records)

    def recover(self) -> List[Any]:
        """The records to replay, oldest first — handed over once (the
        store keeps no decoded copy of its log); reopen the directory to
        read them again. What a torn or corrupt tail cost is reported in
        ``self.wal.torn_bytes_dropped``."""
        if self._records is None:
            raise StorageError(f"{self.directory} was already recovered")
        records, self._records = self._records, None
        return records

    def replay(self, admit: Callable[[Any], None]) -> None:
        """:meth:`recover`, each record through the owner's *admit*; the
        first one it cannot read or verify refuses the whole recovery."""
        for record in self.recover():
            try:
                admit(record)
            except RecoveryIntegrityError:
                raise
            except (ReproError, AttributeError, KeyError, TypeError, ValueError) as exc:
                raise RecoveryIntegrityError(
                    f"{self.directory} holds a record that cannot be read or no "
                    "longer verifies — failing recovery closed rather than "
                    f"replay a poisoned log: {type(exc).__name__}: {exc}"
                ) from exc

    # ------------------------------------------------------------------
    # Journaling
    # ------------------------------------------------------------------

    def append(self, record: Any) -> int:
        """Durably journal *record*; returns its absolute seq."""
        self.wal.append(record)
        self.seq += 1
        self.journal_length += 1
        return self.seq

    def compact(self, records: List[Any]) -> None:
        """Rewrite the log as *records* — what replays to the live state."""
        header = {_HEADER: {"seq": self.seq, "records": len(records)}}
        self.wal.rewrite([header, *records])
        self.journal_length = 0

    def maybe_compact(self, records_fn: Callable[[], List[Any]]) -> bool:
        """Compact to ``records_fn()`` once ``compact_every`` appends
        have accumulated since the last rewrite."""
        if self.compact_every is None:
            return False
        if self.journal_length < self.compact_every:
            return False
        self.compact(records_fn())
        return True

    def close(self) -> None:
        self.wal.close()

    def __enter__(self) -> "DurableStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DurableStore({self.directory!r}, seq={self.seq}, "
            f"journal={self.journal_length})"
        )
