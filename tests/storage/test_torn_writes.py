"""Torn-write recovery, exhaustively: every byte offset of the tail.

The crash model behind the WAL's open-time scan is a write that stopped
at an arbitrary byte (power loss mid-``write``) or a sector that came
back wrong (bit rot, partial flush). This suite drives both models over
*every* byte position and pins the recovery contract from ISSUE 7:

* recovery drops **exactly** the torn suffix,
* a valid prefix record is **never** discarded,
* torn bytes are **never** surfaced to callers (no partially decoded
  record, no garbage record, nothing past the first bad frame).

A compacted store is the same file in the same format, so the same
contract holds for it: damage anywhere costs a suffix, reported — there
is no older checkpoint to fall back to and so no way to come back with
a hole in the middle (the defect the snapshot + journal layout had).
"""

from __future__ import annotations

import os

from repro.storage.store import WAL_NAME, DurableStore
from repro.storage.wal import FRAME_HEADER, WriteAheadLog
from repro.util.encoding import to_wire

#: Distinct, small records so the whole-file sweeps stay fast while the
#: payloads (bytes + nesting) exercise the frame codec.
RECORDS = [
    {"i": 0, "payload": b"alpha"},
    {"i": 1, "payload": b"bravo-longer"},
    {"i": 2, "nested": {"deep": [1, 2, 3]}},
    {"i": 3, "payload": b"\x00\x01\x02\x03"},
    {"i": 4, "payload": b"tail record"},
]


def build_log(tmp_path):
    """A WAL holding RECORDS; returns (path, file bytes, frame boundaries).

    ``boundaries[k]`` is the byte offset where record *k*'s frame ends —
    ``boundaries[0] == 0`` is the empty prefix.
    """
    path = os.path.join(str(tmp_path), WAL_NAME)
    boundaries = [0]
    with WriteAheadLog(path, sync=False) as wal:
        for record in RECORDS:
            wal.append(record)
            boundaries.append(
                boundaries[-1]
                + FRAME_HEADER.size
                + len(to_wire(record))
            )
    with open(path, "rb") as fh:
        data = fh.read()
    assert len(data) == boundaries[-1]
    return path, data, boundaries


def valid_prefix_count(boundaries, size):
    """How many whole frames fit in the first *size* bytes."""
    count = 0
    while count + 1 < len(boundaries) and boundaries[count + 1] <= size:
        count += 1
    return count


class TestTruncationAtEveryOffset:
    def test_every_truncation_point(self, tmp_path):
        """Cut the file at every byte length; recovery must keep exactly
        the whole frames before the cut and report the rest as torn."""
        path, data, boundaries = build_log(tmp_path)
        for size in range(len(data) + 1):
            with open(path, "wb") as fh:
                fh.write(data[:size])
            wal = WriteAheadLog(path, sync=False)
            keep = valid_prefix_count(boundaries, size)
            assert wal.take_records() == RECORDS[:keep], f"truncated at {size}"
            assert wal.torn_bytes_dropped == size - boundaries[keep], (
                f"truncated at {size}: wrong torn accounting"
            )
            # The file itself was healed back to the frame boundary.
            assert os.path.getsize(path) == boundaries[keep]
            wal.close()

    def test_append_after_torn_recovery(self, tmp_path):
        """A healed log accepts appends; the new record lands where the
        torn bytes were, and a further reopen sees a clean log."""
        path, data, boundaries = build_log(tmp_path)
        with open(path, "wb") as fh:
            fh.write(data[: boundaries[3] + 5])  # record 3 torn mid-frame
        wal = WriteAheadLog(path, sync=False)
        assert wal.take_records() == RECORDS[:3]
        wal.append({"i": "replacement"})
        wal.close()
        reopened = WriteAheadLog(path, sync=False)
        assert reopened.take_records() == RECORDS[:3] + [{"i": "replacement"}]
        assert reopened.torn_bytes_dropped == 0
        reopened.close()


class TestCorruptionAtEveryOffset:
    def test_flip_every_byte_of_trailing_frame(self, tmp_path):
        """Flip each byte of the final frame in turn: whatever the byte's
        role (length, header, attachment, CRC), recovery drops exactly
        the final record and keeps every earlier one."""
        path, data, boundaries = build_log(tmp_path)
        tail_start = boundaries[-2]
        for offset in range(tail_start, len(data)):
            corrupted = bytearray(data)
            corrupted[offset] ^= 0xFF
            with open(path, "wb") as fh:
                fh.write(bytes(corrupted))
            wal = WriteAheadLog(path, sync=False)
            records = wal.take_records()
            wal.close()
            assert records == RECORDS[:-1], f"flip at {offset}"
            # Nothing fabricated: the recovered list is a strict prefix of
            # what was written — torn bytes never became a record.
            for recovered, original in zip(records, RECORDS):
                assert recovered == original

    def test_mid_log_corruption_drops_suffix_only(self, tmp_path):
        """A bad sector in the middle ends the log there: the frames
        before it survive, everything after (even though its own frames
        are intact) is dropped rather than trusted past a gap."""
        path, data, boundaries = build_log(tmp_path)
        offset = boundaries[2] + FRAME_HEADER.size + 1  # inside record 2's frame
        corrupted = bytearray(data)
        corrupted[offset] ^= 0x01
        with open(path, "wb") as fh:
            fh.write(bytes(corrupted))
        wal = WriteAheadLog(path, sync=False)
        assert wal.take_records() == RECORDS[:2]
        assert wal.torn_bytes_dropped == len(data) - boundaries[2]
        wal.close()

    def test_corrupt_first_frame_loses_all_serves_nothing(self, tmp_path):
        path, data, _ = build_log(tmp_path)
        corrupted = bytearray(data)
        corrupted[FRAME_HEADER.size] ^= 0xFF  # first byte of the first frame
        with open(path, "wb") as fh:
            fh.write(bytes(corrupted))
        wal = WriteAheadLog(path, sync=False)
        assert wal.take_records() == []
        assert wal.torn_bytes_dropped == len(data)
        wal.close()

    def test_flip_every_byte_of_a_twice_compacted_store(self, tmp_path):
        """Regression: with checkpoints in separate files, one flipped
        byte in the newest made recovery fall back to its predecessor,
        whose journal was already truncated — records 101–200 of 205
        vanished with no error. In a rewritten log every byte, header
        frame included, sits before everything that depends on it: any
        flip yields a strict prefix of the model and says so."""
        directory = str(tmp_path / "store")
        model = []
        with DurableStore(directory, sync=False) as store:
            for i in range(12):
                model.append({"op": "put", "i": i})
                store.append(model[-1])
                if i in (4, 9):  # the model is its own shortest journal
                    store.compact(list(model))
            assert store.seq == 12
        path = os.path.join(directory, WAL_NAME)
        with open(path, "rb") as fh:
            data = fh.read()
        for offset in range(len(data)):
            corrupted = bytearray(data)
            corrupted[offset] ^= 0xFF
            with open(path, "wb") as fh:
                fh.write(bytes(corrupted))
            with DurableStore(directory, sync=False) as store:
                records = store.recover()
                assert store.wal.torn_bytes_dropped > 0, f"flip at {offset}: silent"
                assert len(records) < len(model), f"flip at {offset}: full length"
                assert records == model[: len(records)], f"flip at {offset}: hole"
