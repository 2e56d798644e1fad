"""Durable revocation state: feed log recovery, consumer cursors, and
the fail-closed guarantees across restarts (ISSUE 7 satellites).

The security claim under test: a restart must never re-open the
fail-open window. The feed recovers its full log (an empty restart
would report head 0 and vouch for nothing having been revoked); the checker
recovers its verified view and rejects known-revoked OIDs *before*
touching the network; and a feed that *did* lose its log is detected by
consumers as a head regression and refused.
"""

from __future__ import annotations

import os

import pytest

from repro.errors import (
    FeedRegressionError,
    RecoveryIntegrityError,
    RevocationStalenessError,
    RevokedKeyError,
    TransportError,
)
from repro.globedoc.oid import ObjectId
from repro.revocation.checker import RevocationChecker
from repro.revocation.feed import RevocationFeed
from repro.revocation.statement import RevocationStatement
from repro.storage.store import WAL_NAME, DurableStore
from repro.storage.wal import FRAME_HEADER, WriteAheadLog
from repro.util.encoding import from_wire, to_wire
from tests.conftest import EPOCH, fast_keys, forge_signed

MAX_STALENESS = 60.0


class FeedRpc:
    """Minimal RPC shim straight onto a local feed, with a kill switch."""

    def __init__(self, feed: RevocationFeed) -> None:
        self.feed = feed
        self.down = False
        self.calls = 0

    def call(self, target, method, **kwargs):
        assert method == "revocation.fetch"
        if self.down:
            raise TransportError("revocation feed unreachable")
        self.calls += 1
        return self.feed.fetch(since=int(kwargs.get("since", 0)))


def revoke_key(keys, oid, serial=1):
    return RevocationStatement.revoke_key(
        keys, oid, serial=serial, issued_at=EPOCH, reason="test"
    )


def feed_store(tmp_path, name="feed"):
    return DurableStore(os.path.join(str(tmp_path), name), sync=False)


class TestFeedPersistence:
    def test_log_survives_restart(self, tmp_path, shared_keys):
        oid = ObjectId.from_public_key(shared_keys.public)
        feed = RevocationFeed(store=feed_store(tmp_path))
        feed.publish(revoke_key(shared_keys, oid, serial=1))
        feed.publish(revoke_key(shared_keys, oid, serial=2))
        feed.store.close()

        restarted = RevocationFeed(store=feed_store(tmp_path))
        assert restarted.head == 2
        assert restarted.recovered == 2
        assert restarted.max_serial(oid.hex) == 2
        delta = restarted.fetch(since=0)
        assert len(delta["statements"]) == 2

    def test_serial_monotonicity_survives_restart(self, tmp_path, shared_keys):
        """The replay rebuilds the per-OID serial index, so a replayed
        old statement is still rejected after a restart."""
        oid = ObjectId.from_public_key(shared_keys.public)
        feed = RevocationFeed(store=feed_store(tmp_path))
        feed.publish(revoke_key(shared_keys, oid, serial=5))
        feed.store.close()

        restarted = RevocationFeed(store=feed_store(tmp_path))
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="not monotone"):
            restarted.publish(revoke_key(shared_keys, oid, serial=3))

    def test_recovery_from_compacted_log_plus_journal(self, tmp_path, shared_keys):
        """A rewritten log plus what was appended to it since."""
        oid = ObjectId.from_public_key(shared_keys.public)
        feed = RevocationFeed(store=feed_store(tmp_path))
        feed.publish(revoke_key(shared_keys, oid, serial=1))
        feed.compact()
        feed.publish(revoke_key(shared_keys, oid, serial=2))
        feed.store.close()

        restarted = RevocationFeed(store=feed_store(tmp_path))
        assert restarted.head == 2
        assert [s.serial for s in restarted.statements()] == [1, 2]

    def test_tampered_statement_fails_recovery_closed(self, tmp_path, shared_keys):
        oid = ObjectId.from_public_key(shared_keys.public)
        feed = RevocationFeed(store=feed_store(tmp_path))
        feed.publish(revoke_key(shared_keys, oid, serial=1))
        feed.store.close()

        wal_path = os.path.join(str(tmp_path), "feed", WAL_NAME)
        with open(wal_path, "rb") as fh:
            data = fh.read()
        (length,) = FRAME_HEADER.unpack_from(data, 0)
        record = from_wire(data[FRAME_HEADER.size : FRAME_HEADER.size + length])
        record["statement"] = forge_signed(  # shadow a future serial
            record["statement"], lambda payload: payload["body"].update(serial=99)
        )
        frame = to_wire(record)
        with open(wal_path, "wb") as fh:
            fh.write(FRAME_HEADER.pack(len(frame)))
            fh.write(frame)

        with pytest.raises(RecoveryIntegrityError, match="poisoned log.*signature invalid"):
            RevocationFeed(store=feed_store(tmp_path))


class TestPoisonedRepublish:
    def test_conflicting_republish_rejected_in_durable_feed(
        self, tmp_path, shared_keys
    ):
        """The payload-identity rule (satellite 1) holds for the durable
        feed too, and the rejected statement is never journaled."""
        oid = ObjectId.from_public_key(shared_keys.public)
        feed = RevocationFeed(store=feed_store(tmp_path))
        feed.publish(revoke_key(shared_keys, oid, serial=1))
        imposter = RevocationStatement.revoke_key(
            shared_keys, oid, serial=1, issued_at=EPOCH, reason="different payload"
        )
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="payload differs"):
            feed.publish(imposter)
        assert feed.store.journal_length == 1  # only the genuine statement
        feed.store.close()

        restarted = RevocationFeed(store=feed_store(tmp_path))
        assert restarted.head == 1
        assert restarted.statements()[0].reason == "test"


class TestCheckerCursor:
    def make_checker(self, rpc, clock, tmp_path, name="cursor"):
        return RevocationChecker(
            rpc,
            feed_target=None,
            clock=clock,
            max_staleness=MAX_STALENESS,
            store=DurableStore(os.path.join(str(tmp_path), name), sync=False),
        )

    def test_rejects_revoked_oid_after_restart_with_feed_down(
        self, tmp_path, clock, shared_keys
    ):
        """The zero fail-open window: a restarted checker condemns a
        known-revoked OID from its durable cursor before any RPC — even
        with the feed unreachable."""
        oid = ObjectId.from_public_key(shared_keys.public)
        feed = RevocationFeed()
        rpc = FeedRpc(feed)
        checker = self.make_checker(rpc, clock, tmp_path)
        feed.publish(revoke_key(shared_keys, oid))
        checker.refresh()
        checker.store.close()

        rpc.down = True
        calls_before = rpc.calls
        restarted = self.make_checker(rpc, clock, tmp_path)
        assert restarted.stats.statements_recovered == 1
        assert restarted.head == 1
        with pytest.raises(RevokedKeyError):
            restarted.check(oid)
        assert rpc.calls == calls_before  # rejected without any network

    def test_recovered_view_does_not_vouch_without_sync(
        self, tmp_path, clock, shared_keys, other_keys
    ):
        """Recovery proves what *was* revoked, never that nothing new is:
        vouching for a clean OID still requires a fresh sync, so a clean
        check with the feed down fails closed on staleness."""
        oid = ObjectId.from_public_key(shared_keys.public)
        clean_oid = ObjectId.from_public_key(other_keys.public)
        feed = RevocationFeed()
        rpc = FeedRpc(feed)
        checker = self.make_checker(rpc, clock, tmp_path)
        feed.publish(revoke_key(shared_keys, oid))
        checker.refresh()
        checker.store.close()

        rpc.down = True
        restarted = self.make_checker(rpc, clock, tmp_path)
        assert restarted.staleness is None  # recovered ≠ synced
        with pytest.raises(RevocationStalenessError):
            restarted.check(clean_oid)

    def test_cursor_resumes_from_persisted_head(self, tmp_path, clock, shared_keys):
        """The next refresh after a restart fetches the delta past the
        persisted head, not the whole feed from zero."""
        oid = ObjectId.from_public_key(shared_keys.public)
        feed = RevocationFeed()
        rpc = FeedRpc(feed)
        checker = self.make_checker(rpc, clock, tmp_path)
        feed.publish(revoke_key(shared_keys, oid, serial=1))
        checker.refresh()
        checker.store.close()

        feed.publish(revoke_key(shared_keys, oid, serial=2))
        restarted = self.make_checker(rpc, clock, tmp_path)
        assert restarted.refresh() == 1  # only the new statement crossed the wire
        assert restarted.head == 2

    def test_cursor_survives_compaction(self, tmp_path, clock, shared_keys):
        oid = ObjectId.from_public_key(shared_keys.public)
        feed = RevocationFeed()
        rpc = FeedRpc(feed)
        checker = self.make_checker(rpc, clock, tmp_path)
        feed.publish(revoke_key(shared_keys, oid))
        checker.refresh()
        checker.store.compact(checker._live_records())
        checker.store.close()

        rpc.down = True
        restarted = self.make_checker(rpc, clock, tmp_path)
        assert restarted.head == 1
        with pytest.raises(RevokedKeyError):
            restarted.check(oid)

    def test_tampered_cursor_fails_recovery_closed(self, tmp_path, clock, shared_keys):
        """A cursor store rewritten at rest must not be trusted: its head
        would silently skip genuine revocations — whether the statement
        sits in the journal as ingested or inside a rewritten log."""
        oid = ObjectId.from_public_key(shared_keys.public)
        feed = RevocationFeed()
        rpc = FeedRpc(feed)
        feed.publish(revoke_key(shared_keys, oid))
        for name, compacted in (("journaled", False), ("rewritten", True)):
            checker = self.make_checker(rpc, clock, tmp_path, name)
            checker.refresh()
            if compacted:
                checker.store.compact(checker._live_records())
            checker.store.close()

            wal_path = os.path.join(str(tmp_path), name, WAL_NAME)
            with WriteAheadLog(wal_path, sync=False) as wal:
                records = wal.take_records()
                for record in records:
                    if record.get("op") == "ingest":
                        record["statement"] = forge_signed(
                            record["statement"],
                            lambda payload: payload["body"].update(reason="rewritten at rest"),
                        )
                wal.rewrite(records)  # CRC-valid: only signatures can tell

            with pytest.raises(RecoveryIntegrityError, match="failing recovery closed.*signature invalid"):
                self.make_checker(rpc, clock, tmp_path, name)


class TestHeadRegression:
    def test_refresh_fails_closed_on_regressed_head(self, clock, shared_keys):
        """Satellite 2: a feed whose head moved backwards lost statements
        (restart without its log, or a rollback attack). The consumer
        must refuse the sync immediately — not treat it as fresh."""
        oid = ObjectId.from_public_key(shared_keys.public)
        feed = RevocationFeed()
        rpc = FeedRpc(feed)
        checker = RevocationChecker(
            rpc, feed_target=None, clock=clock, max_staleness=MAX_STALENESS
        )
        feed.publish(revoke_key(shared_keys, oid))
        checker.refresh()
        assert checker.head == 1

        rpc.feed = RevocationFeed()  # the feed restarted empty
        with pytest.raises(FeedRegressionError, match="regressed from 1 to 0"):
            checker.refresh()
        # The refused sync neither moved the cursor nor counted.
        assert checker.head == 1
        assert checker.stats.refreshes == 1

    def test_regression_propagates_through_check(self, clock, shared_keys, other_keys):
        """The regression is not a staleness condition: even inside the
        max-staleness window, check() must surface it, not serve on the
        stale view."""
        oid = ObjectId.from_public_key(shared_keys.public)
        clean_oid = ObjectId.from_public_key(other_keys.public)
        feed = RevocationFeed()
        rpc = FeedRpc(feed)
        checker = RevocationChecker(
            rpc, feed_target=None, clock=clock, max_staleness=MAX_STALENESS
        )
        feed.publish(revoke_key(shared_keys, oid))
        checker.refresh()

        rpc.feed = RevocationFeed()
        clock.advance(checker.poll_interval + 1)  # stale enough to refresh,
        assert (checker.staleness or 0) < MAX_STALENESS  # well within the window
        with pytest.raises(FeedRegressionError):
            checker.check(clean_oid)

    def test_known_revocation_still_rejected_during_regression(
        self, clock, shared_keys
    ):
        """Rejection needs no proof of currency: the revoked OID is
        condemned from the local view before the doomed refresh runs."""
        oid = ObjectId.from_public_key(shared_keys.public)
        feed = RevocationFeed()
        rpc = FeedRpc(feed)
        checker = RevocationChecker(
            rpc, feed_target=None, clock=clock, max_staleness=MAX_STALENESS
        )
        feed.publish(revoke_key(shared_keys, oid))
        checker.refresh()

        rpc.feed = RevocationFeed()
        clock.advance(checker.poll_interval + 1)
        with pytest.raises(RevokedKeyError):
            checker.check(oid)

    def test_equal_head_is_not_a_regression(self, clock, shared_keys):
        oid = ObjectId.from_public_key(shared_keys.public)
        feed = RevocationFeed()
        rpc = FeedRpc(feed)
        checker = RevocationChecker(
            rpc, feed_target=None, clock=clock, max_staleness=MAX_STALENESS
        )
        feed.publish(revoke_key(shared_keys, oid))
        checker.refresh()
        assert checker.refresh() == 0  # empty delta, same head: fine
        assert checker.head == 1
        assert checker.stats.refreshes == 2
