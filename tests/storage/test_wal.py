"""The write-ahead log: framing, durability discipline, reopen semantics."""

from __future__ import annotations

import os

import pytest

from repro.errors import StorageError
from repro.storage.store import WAL_NAME
from repro.storage.wal import FRAME_HEADER, MAX_RECORD_BYTES, WriteAheadLog
from repro.util.encoding import to_wire
from tests.net.test_protocol_fuzz import MUTATIONS, _assemble, _split

RECORDS = [
    {"op": "a", "n": 1},
    {"op": "b", "payload": b"\x00\xffbinary"},
    {"op": "c", "nested": {"list": [1, 2, 3], "s": "text"}},
]

#: A record whose ``value.content`` is the non-empty attachment every
#: frame mutation expects.
MUTABLE = {"op": "put", "value": {"content": b"\x00element\xff", "name": "x.html"}}


def wal_path(tmp_path):
    return os.path.join(str(tmp_path), WAL_NAME)


class TestAppendAndReopen:
    def test_round_trip(self, tmp_path):
        with WriteAheadLog(wal_path(tmp_path), sync=False) as wal:
            for i, record in enumerate(RECORDS):
                assert wal.append(record) == i
        reopened = WriteAheadLog(wal_path(tmp_path), sync=False)
        assert reopened.take_records() == RECORDS
        assert reopened.torn_bytes_dropped == 0
        reopened.close()

    def test_append_after_reopen_continues(self, tmp_path):
        with WriteAheadLog(wal_path(tmp_path), sync=False) as wal:
            wal.append(RECORDS[0])
        with WriteAheadLog(wal_path(tmp_path), sync=False) as wal:
            assert wal.append(RECORDS[1]) == 1
        with WriteAheadLog(wal_path(tmp_path), sync=False) as wal:
            assert wal.take_records() == RECORDS[:2]

    def test_iteration_and_len(self, tmp_path):
        """``len`` counts frames — found at open plus appended since —
        whether or not the decoded records are still held."""
        with WriteAheadLog(wal_path(tmp_path), sync=False) as wal:
            for record in RECORDS[:2]:
                wal.append(record)
            assert len(wal) == 2
        with WriteAheadLog(wal_path(tmp_path), sync=False) as wal:
            assert list(wal.take_records()) == RECORDS[:2]
            wal.append(RECORDS[2])
            assert len(wal) == len(RECORDS)

    def test_records_returns_copy(self, tmp_path):
        """The records are handed over, not shared: the log keeps no
        decoded copy — neither of what it read nor of what it appends —
        so the caller's list is the only one."""
        with WriteAheadLog(wal_path(tmp_path), sync=False) as wal:
            wal.append(RECORDS[0])
        with WriteAheadLog(wal_path(tmp_path), sync=False) as wal:
            taken = wal.take_records()
            taken.append("intruder")
            wal.append(RECORDS[1])
            assert wal.take_records() == []
        with WriteAheadLog(wal_path(tmp_path), sync=False) as wal:
            assert wal.take_records() == RECORDS[:2]

    def test_creates_parent_directory(self, tmp_path):
        path = os.path.join(str(tmp_path), "deep", "nested", WAL_NAME)
        with WriteAheadLog(path, sync=False) as wal:
            wal.append(RECORDS[0])
        assert os.path.exists(path)

    def test_empty_file_is_empty_log(self, tmp_path):
        open(wal_path(tmp_path), "wb").close()
        with WriteAheadLog(wal_path(tmp_path), sync=False) as wal:
            assert wal.take_records() == []
            assert wal.torn_bytes_dropped == 0


class TestDurabilityDiscipline:
    def test_sync_append_reaches_disk_bytes(self, tmp_path):
        with WriteAheadLog(wal_path(tmp_path), sync=True) as wal:
            wal.append(RECORDS[0])
            expected = FRAME_HEADER.size + len(to_wire(RECORDS[0]))
            assert os.path.getsize(wal_path(tmp_path)) == expected
            assert FRAME_HEADER.size == 4  # a length; the frame checks itself

    def test_rewrite_replaces_everything_atomically(self, tmp_path):
        with WriteAheadLog(wal_path(tmp_path), sync=False) as wal:
            for record in RECORDS:
                wal.append(record)
            wal.rewrite(RECORDS[:1])
            assert len(wal) == 1
            assert os.listdir(str(tmp_path)) == [WAL_NAME]
            expected = FRAME_HEADER.size + len(to_wire(RECORDS[0]))
            assert os.path.getsize(wal_path(tmp_path)) == expected
            wal.append(RECORDS[2])  # lands in the new file, not the old inode
        reopened = WriteAheadLog(wal_path(tmp_path), sync=False)
        assert reopened.take_records() == [RECORDS[0], RECORDS[2]]
        reopened.close()

    def test_refused_rewrite_leaves_the_log_untouched(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.storage.wal.MAX_RECORD_BYTES", 64)
        with WriteAheadLog(wal_path(tmp_path), sync=False) as wal:
            wal.append(RECORDS[0])
            with pytest.raises(StorageError, match="frame limit"):
                wal.rewrite([RECORDS[1], {"blob": b"x" * 65}])
            assert os.listdir(str(tmp_path)) == [WAL_NAME]
        reopened = WriteAheadLog(wal_path(tmp_path), sync=False)
        assert reopened.take_records() == [RECORDS[0]]
        reopened.close()


class TestLimitsAndLifecycle:
    def test_oversized_record_rejected(self, tmp_path):
        with WriteAheadLog(wal_path(tmp_path), sync=False) as wal:
            with pytest.raises(StorageError, match="frame limit"):
                wal.append({"blob": b"x" * (MAX_RECORD_BYTES + 1)})
            # The refused append left no partial frame behind.
            assert os.path.getsize(wal_path(tmp_path)) == 0

    def test_closed_log_refuses_appends(self, tmp_path):
        wal = WriteAheadLog(wal_path(tmp_path), sync=False)
        wal.close()
        with pytest.raises(StorageError, match="closed"):
            wal.append(RECORDS[0])
        with pytest.raises(StorageError, match="closed"):
            wal.rewrite([])

    def test_double_close_is_noop(self, tmp_path):
        wal = WriteAheadLog(wal_path(tmp_path), sync=False)
        wal.close()
        wal.close()


class TestForeignBytes:
    def test_crc_valid_but_undecodable_frame_stops_scan(self, tmp_path):
        """A frame whose trailer checks out but whose header is not JSON
        was not written by this WAL — corruption starts there."""
        with WriteAheadLog(wal_path(tmp_path), sync=False) as wal:
            wal.append(RECORDS[0])
        garbage = _assemble(b"\xde\xad\xbe\xef not a header", b"")
        with open(wal_path(tmp_path), "ab") as fh:
            fh.write(FRAME_HEADER.pack(len(garbage)) + garbage)
        reopened = WriteAheadLog(wal_path(tmp_path), sync=False)
        assert reopened.take_records() == [RECORDS[0]]
        assert reopened.torn_bytes_dropped == FRAME_HEADER.size + len(garbage)
        reopened.close()

    def test_absurd_length_prefix_is_torn_not_allocated(self, tmp_path):
        with WriteAheadLog(wal_path(tmp_path), sync=False) as wal:
            wal.append(RECORDS[0])
        with open(wal_path(tmp_path), "ab") as fh:
            fh.write(FRAME_HEADER.pack(0xFFFFFFFF) + b"tiny")
        reopened = WriteAheadLog(wal_path(tmp_path), sync=False)
        assert reopened.take_records() == [RECORDS[0]]
        assert reopened.torn_bytes_dropped == FRAME_HEADER.size + 4
        reopened.close()


class TestFrameMutations:
    """The frame at rest is the frame on the wire, so every way the
    frame fuzz breaks one is, on disk, a torn tail: dropped and counted,
    the prefix kept, the log still appendable."""

    @pytest.mark.parametrize("drawn", [0, 1, 977])
    @pytest.mark.parametrize("mutation", list(MUTATIONS))
    def test_every_frame_mutation_is_torn(self, tmp_path, mutation, drawn):
        genuine = to_wire(MUTABLE)
        mutated = MUTATIONS[mutation](*_split(genuine), drawn)
        assert mutated != genuine
        with WriteAheadLog(wal_path(tmp_path), sync=False) as wal:
            for record in RECORDS[:2]:
                wal.append(record)
        with open(wal_path(tmp_path), "ab") as fh:
            fh.write(FRAME_HEADER.pack(len(mutated)) + mutated)
        with WriteAheadLog(wal_path(tmp_path), sync=False) as wal:
            assert wal.take_records() == RECORDS[:2]
            assert wal.torn_bytes_dropped == FRAME_HEADER.size + len(mutated)
            wal.append(RECORDS[2])
        with WriteAheadLog(wal_path(tmp_path), sync=False) as wal:
            assert wal.take_records() == RECORDS
            assert wal.torn_bytes_dropped == 0
