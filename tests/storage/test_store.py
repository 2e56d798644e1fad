"""DurableStore: absolute sequencing, compaction as an atomic log rewrite."""

from __future__ import annotations

import copy
import os
import struct
import zlib
from collections import defaultdict

import pytest

from repro.errors import StorageError
from repro.storage.store import WAL_NAME, DurableStore
from repro.util.encoding import canonical_bytes
from tests.conftest import fast_keys


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
        assert os.listdir(str(tmp_path)) == [WAL_NAME]

    def test_tmp_fsynced_before_rename_and_directory_after(
        self, tmp_path, monkeypatch
    ):
        """The durability discipline of the rewrite: the staged file
        reaches the disk before it takes the live name, and the rename
        itself is made durable before ``compact`` returns."""
        store = make_store(tmp_path)
        store.append({"op": "a"})
        tmp = os.path.join(str(tmp_path), WAL_NAME + ".tmp")
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

    def test_journal_of_the_retired_frame_format_refused_untouched(self, tmp_path):
        """A ``wal.log`` of length + CRC32 headers around canonical-JSON
        payloads is not read by a fallback, and not scanned as a torn
        journal of this format either (that would truncate it to
        nothing): the directory is refused and the file left as it was."""
        frames = []
        for record in ({"wal.rewritten": {"seq": 2, "records": 1}}, {"op": "a", "blob": b"\x00"}):
            payload = canonical_bytes(record)
            frames.append(struct.pack(">II", len(payload), zlib.crc32(payload)) + payload)
        old_log = os.path.join(str(tmp_path), "wal.log")
        with open(old_log, "wb") as fh:
            fh.write(b"".join(frames))
        with pytest.raises(StorageError, match="wal.log"):
            make_store(tmp_path)
        assert os.listdir(str(tmp_path)) == ["wal.log"]
        with open(old_log, "rb") as fh:
            assert fh.read() == b"".join(frames)

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
        stray = os.path.join(str(tmp_path), WAL_NAME + ".tmp")
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
        wal_path = os.path.join(str(tmp_path), WAL_NAME)
        size = os.path.getsize(wal_path)
        with open(wal_path, "r+b") as fh:
            fh.truncate(size - 3)
        reopened = make_store(tmp_path)
        assert reopened.recover() == [{"op": "a"}]
        assert reopened.wal.torn_bytes_dropped > 0


class TestJournalRoundTrip:
    """What a subsystem journals is what its recovery reads back, for
    every op of the six vocabularies — on the way through the frame
    codec, nothing may change type (a non-``str`` key turning into a
    string, a tuple into a list of something else)."""

    VOCABULARIES = {
        "world/objectserver/server": {
            "authorize", "revoke", "replica.create", "replica.update", "replica.destroy",
        },
        "world/objectserver/feed": {"publish"},
        "world/objectserver/versioning": {"register", "grant", "delta", "frontier"},
        "world/naming": {"record"},
        "world/location": {"insert", "delete"},
        "cursor": {"ingest", "head"},
    }

    def test_every_journal_op_round_trips(self, tmp_path, monkeypatch):
        from repro.globedoc.element import PageElement
        from repro.globedoc.owner import DocumentOwner
        from repro.harness.experiment import Testbed
        from repro.revocation.statement import RevocationStatement
        from repro.versioning import DeltaDag, DocumentWriter, WriterGrant, merge_deltas

        appended = defaultdict(list)
        real_append = DurableStore.append

        def recording_append(store, record):
            where = os.path.relpath(store.directory, str(tmp_path))
            appended[where].append(copy.deepcopy(record))
            return real_append(store, record)

        monkeypatch.setattr(DurableStore, "append", recording_append)
        world = str(tmp_path / "world")
        testbed = Testbed(data_dir=world, storage_sync=False)
        clock, server = testbed.clock, testbed.object_server

        def owner(name, elements):
            made = DocumentOwner(name, keys=fast_keys(), clock=clock)
            for element, content in elements.items():
                made.put_element(PageElement(element, content))
            return made

        # Publish (authorize, replica.create, record, insert), then update.
        alice = owner("vu.nl/doc", {"index.html": b"v1", "old.html": b"withdrawn"})
        published = testbed.publish(alice)
        alice.put_element(PageElement("index.html", b"v2"))
        server.update_replica(alice.publish(validity=3600.0), alice.public_key)
        # Revoke an entity: its replica goes (replica.destroy), then revoke.
        doomed = owner("vu.nl/doomed", {"index.html": b"gone"})
        testbed.publish(doomed)
        assert server.revoke_entity(doomed.public_key)
        # Location: an address moved away and back, each move a delete
        # then an insert.
        address = published.replica_addresses[testbed.site].to_dict()
        elsewhere = testbed.host_sites["canardo.inria.fr"]
        location = testbed.location_service
        for source, target in ((testbed.site, elsewhere), (elsewhere, testbed.site)):
            location.delete(alice.oid.hex, source, address)
            location.insert(alice.oid.hex, target, address)
        # The feed (publish) and a client cursor (ingest, head).
        server.revocation_feed.publish(
            RevocationStatement.revoke_element(
                alice.keys, alice.oid, "old.html", cert_version=1, serial=1,
                issued_at=clock.now(),
            )
        )
        stack = testbed.client_stack(
            "sporty.cs.vu.nl", revocation_max_staleness=60.0,
            revocation_cursor_dir=str(tmp_path / "cursor"),
        )
        assert stack.proxy.handle(published.url("index.html")).ok
        stack.revocation.store.close()
        # A versioned write: register, grant, delta, frontier.
        writer_keys = fast_keys()
        server.versioning.register_object(alice.public_key)
        server.versioning.put_grant(
            alice.oid.hex,
            WriterGrant.issue(alice.keys, alice.oid, "bob", writer_keys.public, granted_at=clock.now()),
        )
        writer, dag = DocumentWriter(writer_keys, "bob", alice.oid, clock), DeltaDag()
        server.versioning.put_delta(alice.oid.hex, writer.put(dag, "body", b"\x00delta\xff"))
        server.versioning.put_frontier_cert(
            alice.oid.hex, writer.certify_frontier(merge_deltas(dag.deltas, oid_hex=alice.oid.hex))
        )
        # Restart over the directory: the world recovers from it.
        testbed.close_stores()
        testbed = Testbed(
            clock=clock, data_dir=world, storage_sync=False, zone_keys=testbed.zone_keys
        )
        assert testbed.object_server.reverified_replicas == 1
        testbed.close_stores()

        assert {where: {r["op"] for r in records} for where, records in appended.items()} == (
            self.VOCABULARIES
        )
        for where, records in appended.items():
            with DurableStore(str(tmp_path / where), sync=False) as store:
                assert store.wal.torn_bytes_dropped == 0
                assert store.recover() == records, where
