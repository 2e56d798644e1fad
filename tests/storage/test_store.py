"""DurableStore: absolute sequencing, compaction as an atomic log rewrite."""

from __future__ import annotations

import os

import pytest

from repro.errors import StorageError
from repro.storage.store import DurableStore


def make_store(tmp_path, **kwargs):
    kwargs.setdefault("sync", False)
    return DurableStore(str(tmp_path), **kwargs)


class TestJournal:
    def test_cold_start(self, tmp_path):
        store = make_store(tmp_path)
        assert store.recover() == []
        assert store.wal.torn_bytes_dropped == 0
        assert store.seq == 0

    def test_append_assigns_absolute_seqs(self, tmp_path):
        store = make_store(tmp_path)
        assert store.append({"op": "a"}) == 1
        assert store.append({"op": "b"}) == 2
        assert store.seq == 2
        assert store.journal_length == 2

    def test_recover_replays_journal(self, tmp_path):
        store = make_store(tmp_path)
        store.append({"op": "a"})
        store.append({"op": "b"})
        store.close()
        assert make_store(tmp_path).recover() == [{"op": "a"}, {"op": "b"}]

    def test_recover_hands_the_records_over_once(self, tmp_path):
        """The store keeps no decoded copy of its log: a second recover
        is refused rather than answered with an empty (cold) state, and
        records appended since are held nowhere in memory."""
        store = make_store(tmp_path)
        store.append({"op": "a"})
        store.close()
        store = make_store(tmp_path)
        assert store.recover() == [{"op": "a"}]
        with pytest.raises(StorageError, match="already recovered"):
            store.recover()
        store.append({"op": "b"})
        assert store.wal.take_records() == []
        assert len(store.wal) == 2


class TestCompaction:
    def test_compact_checkpoints_and_resets_journal(self, tmp_path):
        store = make_store(tmp_path)
        store.append({"op": "a"})
        store.append({"op": "b"})
        store.compact([{"op": "ab"}])
        assert store.journal_length == 0
        assert store.seq == 2  # a rewrite is not an append
        store.append({"op": "c"})
        assert store.seq == 3  # seqs are absolute, surviving compaction
        store.close()
        reopened = make_store(tmp_path)
        assert reopened.seq == 3
        assert reopened.journal_length == 1
        assert reopened.recover() == [{"op": "ab"}, {"op": "c"}]
        assert reopened.append({"op": "d"}) == 4

    def test_compact_to_nothing_is_a_cold_start_that_remembers_seq(self, tmp_path):
        store = make_store(tmp_path)
        store.append({"op": "a"})
        store.compact([])
        store.close()
        reopened = make_store(tmp_path)
        assert reopened.recover() == []
        assert reopened.seq == 1

    def test_maybe_compact_threshold(self, tmp_path):
        store = make_store(tmp_path, compact_every=3)
        calls = []

        def records_fn():
            calls.append(store.seq)
            return [{"kept": i} for i in range(5)]

        for i in range(2):
            store.append({"i": i})
            assert store.maybe_compact(records_fn) is False
        store.append({"i": 2})
        assert store.maybe_compact(records_fn) is True
        assert calls == [3]
        assert store.journal_length == 0
        # The threshold counts appends since the rewrite, not the frames
        # the rewrite kept (five, already past it) — here and after reopen.
        store.append({"i": 3})
        assert store.maybe_compact(records_fn) is False
        store.close()
        reopened = make_store(tmp_path, compact_every=3)
        assert reopened.journal_length == 1
        assert reopened.maybe_compact(records_fn) is False

    def test_maybe_compact_disabled(self, tmp_path):
        store = make_store(tmp_path, compact_every=None)
        for i in range(10):
            store.append({"i": i})
        assert store.maybe_compact(lambda: []) is False
        assert store.journal_length == 10

    def test_compact_every_validated(self, tmp_path):
        with pytest.raises(StorageError, match="positive"):
            make_store(tmp_path, compact_every=0)


class TestRewriteDiscipline:
    """A checkpoint is a rewritten journal: one file, swapped atomically."""

    def test_directory_holds_exactly_the_log(self, tmp_path):
        store = make_store(tmp_path)
        for round_ in range(3):
            for i in range(4):
                store.append({"round": round_, "i": i})
            store.compact([{"round": round_}])
        store.append({"op": "tail"})
        store.close()
        assert os.listdir(str(tmp_path)) == ["wal.log"]

    def test_tmp_fsynced_before_rename_and_directory_after(
        self, tmp_path, monkeypatch
    ):
        """The durability discipline of the rewrite: the staged file
        reaches the disk before it takes the live name, and the rename
        itself is made durable before ``compact`` returns."""
        store = make_store(tmp_path)
        store.append({"op": "a"})
        tmp = os.path.join(str(tmp_path), "wal.log.tmp")
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            if os.path.exists(tmp) and os.path.samestat(os.fstat(fd), os.stat(tmp)):
                events.append("fsync tmp")
            elif os.path.samestat(os.fstat(fd), os.stat(str(tmp_path))):
                events.append("fsync dir")
            real_fsync(fd)

        def replace(src, dst):
            assert open(src, "rb").read()  # complete before it is renamed
            events.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        store.compact([{"op": "a"}])
        assert events == ["fsync tmp", "replace", "fsync dir"]

    def test_sync_append_still_fsyncs_after_a_rewrite(self, tmp_path, monkeypatch):
        store = make_store(tmp_path, sync=True)
        store.compact([])
        synced = []
        monkeypatch.setattr(os, "fsync", synced.append)
        store.append({"op": "a"})
        assert len(synced) == 1

    def test_retired_snapshot_layout_refused(self, tmp_path):
        """No reader for the old layout stays: a checkpoint file is
        state this version cannot read, so it is refused, not ignored."""
        with open(os.path.join(str(tmp_path), "snapshot-000000000200.bin"), "wb") as fh:
            fh.write(b"old checkpoint")
        with pytest.raises(StorageError, match="snapshot-000000000200.bin"):
            make_store(tmp_path)

    def test_directory_is_exclusive(self, tmp_path):
        """On purpose broader than the retired layout: a store owns its
        directory, and any entry that is not its log — whatever its
        name — is refused by name rather than guessed to be harmless.
        Removing the entry is the whole repair."""
        store = make_store(tmp_path)
        store.append({"op": "a"})
        store.close()
        stray = os.path.join(str(tmp_path), "notes.txt")
        with open(stray, "w") as fh:
            fh.write("not a log")
        with pytest.raises(StorageError, match="notes.txt"):
            make_store(tmp_path)
        os.remove(stray)
        assert make_store(tmp_path).recover() == [{"op": "a"}]

    def test_malformed_header_refused(self, tmp_path):
        store = make_store(tmp_path)
        store.wal.append({"wal.rewritten": {"seq": "many"}})
        store.close()
        with pytest.raises(StorageError, match="malformed log header"):
            make_store(tmp_path)


class TestCrashOrdering:
    def test_stray_tmp_is_discarded_at_open(self, tmp_path):
        """A crash before the rename leaves the old log whole and a
        staged file beside it, which must never be read as state."""
        store = make_store(tmp_path)
        store.append({"op": "a"})
        store.close()
        stray = os.path.join(str(tmp_path), "wal.log.tmp")
        with open(stray, "wb") as fh:
            fh.write(b"half-written")
        reopened = make_store(tmp_path)
        assert not os.path.exists(stray)
        assert reopened.recover() == [{"op": "a"}]

    def test_torn_tail_reported_through_recover(self, tmp_path):
        store = make_store(tmp_path)
        store.append({"op": "a"})
        store.append({"op": "b"})
        store.close()
        wal_path = os.path.join(str(tmp_path), "wal.log")
        size = os.path.getsize(wal_path)
        with open(wal_path, "r+b") as fh:
            fh.truncate(size - 3)
        reopened = make_store(tmp_path)
        assert reopened.recover() == [{"op": "a"}]
        assert reopened.wal.torn_bytes_dropped > 0
