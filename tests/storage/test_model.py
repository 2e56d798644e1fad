"""Model-based crash test: DurableStore against a plain list.

The storage contract, stated once: whatever sequence of appends,
compactions, clean restarts and crashes a store lives through, reopening
it yields *exactly* the records of the last operation that completed —
the whole pre-compaction list or the whole post-compaction one, never a
mixture — ``seq`` is the count of appends ever made, and the directory
holds nothing but its journal file. Hypothesis generates the histories; a
failure shrinks to a replayable sequence of rule calls.

Crashes are simulated at each step of the rewrite by making the step
raise and abandoning the store object: with the staged file half
written, with it complete but not renamed, and with it renamed but the
store's handle not yet reopened. A crash mid-``append`` (a torn tail)
rides along.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from unittest import mock

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.storage import wal as wal_module
from repro.storage.store import WAL_NAME, DurableStore
from repro.storage.wal import FRAME_HEADER
from repro.util.encoding import to_wire


class _Crash(Exception):
    """The process died here."""


class DurableStoreMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="store-model-")
        self.wal_path = os.path.join(self.directory, WAL_NAME)
        #: What a recover must return, and how many appends were ever made.
        self.model: list = []
        self.appended = 0
        self.store = None
        self._open()

    def teardown(self) -> None:
        self.store.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    def _open(self, torn: int = 0) -> None:
        self.store = DurableStore(self.directory, sync=False, compact_every=None)
        assert self.store.recover() == self.model
        assert self.store.wal.torn_bytes_dropped == torn
        assert self.store.seq == self.appended
        assert os.listdir(self.directory) == [WAL_NAME]

    def _restart(self, torn: int = 0) -> None:
        """Drop the store object (clean close and crash look the same to
        an append-flushed log) and recover from the directory alone."""
        self.store.close()
        self._open(torn)

    def _record(self, payload: bytes) -> dict:
        return {"op": "put", "n": self.appended, "payload": payload}

    # -- the healthy life ------------------------------------------------

    @rule(payload=st.binary(max_size=24))
    def append(self, payload):
        record = self._record(payload)
        assert self.store.append(record) == self.appended + 1
        self.appended += 1
        self.model.append(record)

    def _kept(self, data) -> list:
        """Some owner's idea of the records that rebuild its live state:
        any order-preserving subset of the model."""
        size = len(self.model)
        keep = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
        return [record for record, kept in zip(self.model, keep) if kept]

    @rule(data=st.data())
    def compact(self, data):
        self.model = self._kept(data)
        self.store.compact(list(self.model))
        assert self.store.seq == self.appended
        assert self.store.journal_length == 0

    @rule()
    def reopen_twice(self):
        """Reopening changes nothing — not the records, not the bytes."""
        self._restart()
        with open(self.wal_path, "rb") as fh:
            before = fh.read()
        self._restart()
        with open(self.wal_path, "rb") as fh:
            assert fh.read() == before

    # -- crashes -----------------------------------------------------------

    def _crash_in_compact(self, kept: list, at) -> None:
        with at:
            try:
                self.store.compact(kept)
            except _Crash:
                return
        raise AssertionError("the rewrite never reached the crash point")

    @rule(data=st.data(), fraction=st.sampled_from([0.0, 0.5, 1.0]))
    def crash_before_rename(self, data, fraction):
        """Staged file empty, half written or complete — but never
        renamed: the old log is whole and is what recovers."""
        self._crash_in_compact(
            self._kept(data),
            mock.patch.object(wal_module.os, "replace", side_effect=_Crash),
        )
        tmp_path = self.wal_path + ".tmp"
        with open(tmp_path, "r+b") as fh:
            fh.truncate(int(os.path.getsize(tmp_path) * fraction))
        self._restart()

    @rule(data=st.data())
    def crash_after_rename(self, data):
        """Renamed, but the process dies before the store reopens its
        handle: the new log is whole and is what recovers."""
        self.model = self._kept(data)
        self._crash_in_compact(
            list(self.model),
            mock.patch.object(wal_module, "_fsync_dir", side_effect=_Crash),
        )
        self._restart()

    @rule(payload=st.binary(max_size=24), data=st.data())
    def crash_mid_append(self, payload, data):
        """A frame that stopped part-way: the torn tail is dropped,
        reported, and costs nothing that was acknowledged."""
        body = to_wire(self._record(payload))
        frame = FRAME_HEADER.pack(len(body)) + body
        cut = data.draw(st.integers(min_value=1, max_value=len(frame) - 1))
        self.store.close()
        with open(self.wal_path, "ab") as fh:
            fh.write(frame[:cut])
        self._open(torn=cut)


# Small inside tier-1; a requested profile (conftest's ``deep``) governs.
DurableStoreMachine.TestCase.settings = (
    settings(deadline=None)
    if "HYPOTHESIS_PROFILE" in os.environ
    else settings(max_examples=25, stateful_step_count=30, deadline=None)
)
TestDurableStoreModel = DurableStoreMachine.TestCase
