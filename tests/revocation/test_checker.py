"""The client-side revocation checker: staleness policy, scope
semantics, verification of an untrusted feed, and first-sight cache
purges."""

from __future__ import annotations

import tracemalloc

import pytest

from repro.crypto.certificates import Certificate
from repro.crypto.verifycache import VerificationCache
from repro.errors import (
    RevocationStalenessError,
    RevokedElementError,
    RevokedKeyError,
    TransportError,
)
from repro.globedoc.element import PageElement
from repro.globedoc.oid import ObjectId
from repro.proxy.contentcache import ContentCache
from repro.revocation.checker import RevocationChecker
from repro.revocation.feed import RevocationFeed
from repro.revocation.statement import REVOCATION_CERT_TYPE, RevocationStatement
from repro.util.encoding import canonical_bytes
from tests.conftest import EPOCH

MAX_STALENESS = 60.0  # poll interval defaults to half: 30 s


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


@pytest.fixture
def feed() -> RevocationFeed:
    return RevocationFeed()


@pytest.fixture
def rpc(feed) -> FeedRpc:
    return FeedRpc(feed)


@pytest.fixture
def checker(rpc, clock) -> RevocationChecker:
    return RevocationChecker(
        rpc, feed_target=None, clock=clock, max_staleness=MAX_STALENESS
    )


@pytest.fixture(scope="module")
def oid(shared_keys) -> ObjectId:
    return ObjectId.from_public_key(shared_keys.public)


def revoke_key(keys, oid, serial=1):
    return RevocationStatement.revoke_key(
        keys, oid, serial=serial, issued_at=EPOCH, reason="test"
    )


class TestCheck:
    def test_clean_oid_passes(self, checker, rpc, oid):
        checker.check(oid)
        assert rpc.calls == 1  # first check always syncs
        assert checker.known_statements(oid) == []

    def test_revoked_key_rejected(self, checker, feed, shared_keys, oid):
        statement = revoke_key(shared_keys, oid)
        feed.publish(statement)
        with pytest.raises(RevokedKeyError):
            checker.check(oid)
        known = checker.known_statements(oid)
        assert [s.to_dict() for s in known] == [statement.to_dict()]

    def test_unrelated_oid_unaffected(
        self, checker, feed, shared_keys, other_keys, oid
    ):
        feed.publish(revoke_key(shared_keys, oid))
        checker.check(ObjectId.from_public_key(other_keys.public))

    def test_element_scope_is_version_bounded(
        self, checker, feed, shared_keys, oid
    ):
        feed.publish(
            RevocationStatement.revoke_element(
                shared_keys, oid, element="index.html", cert_version=2,
                serial=1, issued_at=EPOCH,
            )
        )
        # Establish-time check (no element in hand) is not condemned.
        checker.check(oid)
        with pytest.raises(RevokedElementError):
            checker.check(oid, element_name="index.html", cert_version=2)
        with pytest.raises(RevokedElementError):  # unknown version: closed
            checker.check(oid, element_name="index.html", cert_version=None)
        checker.check(oid, element_name="index.html", cert_version=3)
        checker.check(oid, element_name="logo.gif", cert_version=1)


class TestStalenessPolicy:
    def test_poll_interval_gates_refresh(self, checker, rpc, clock, oid):
        checker.check(oid)
        clock.advance(checker.poll_interval - 1.0)
        checker.check(oid)
        assert rpc.calls == 1  # within the poll window: view reused
        clock.advance(2.0)
        checker.check(oid)
        assert rpc.calls == 2

    def test_never_synced_and_feed_down_fails_closed(self, checker, rpc, oid):
        rpc.down = True
        with pytest.raises(RevocationStalenessError):
            checker.check(oid)
        assert checker.staleness is None  # the failed refresh synced nothing

    def test_stale_within_window_serves(self, checker, rpc, clock, oid):
        checker.check(oid)
        rpc.down = True
        clock.advance(checker.poll_interval + 1.0)  # stale, but in window
        checker.check(oid)
        # Served on the last good view: the failed refresh synced nothing.
        assert checker.stats.refreshes == 1
        assert checker.staleness == pytest.approx(checker.poll_interval + 1.0)

    def test_stale_past_window_fails_closed(self, checker, rpc, clock, oid):
        checker.check(oid)
        rpc.down = True
        clock.advance(MAX_STALENESS + 1.0)
        with pytest.raises(RevocationStalenessError):
            checker.check(oid)

    def test_recovers_when_feed_returns(
        self, checker, rpc, clock, feed, shared_keys, oid
    ):
        checker.check(oid)
        rpc.down = True
        clock.advance(MAX_STALENESS + 1.0)
        with pytest.raises(RevocationStalenessError):
            checker.check(oid)
        rpc.down = False
        feed.publish(revoke_key(shared_keys, oid))
        with pytest.raises(RevokedKeyError):  # fresh view, real verdict
            checker.check(oid)

    def test_rejects_invalid_max_staleness(self, rpc, clock):
        with pytest.raises(ValueError):
            RevocationChecker(rpc, feed_target=None, clock=clock, max_staleness=0)


class TestUntrustedFeed:
    def test_forged_statement_dropped(self, clock, shared_keys, other_keys, oid):
        """A feed serving a forged statement must not revoke anything —
        consumers re-verify every statement themselves."""
        body = {
            "oid": oid.to_dict(),
            "scope": "key",
            "serial": 1,
            "issued_at": EPOCH,
            "reason": "forged by the feed",
            "issuer_key_der": other_keys.public.der,
            "element": None,
            "cert_version": None,
        }
        forged = Certificate.issue(
            other_keys, REVOCATION_CERT_TYPE, body, not_before=EPOCH
        )

        class PoisonedRpc:
            def call(self, target, method, **kwargs):
                return {"head": 1, "statements": [forged.to_dict()]}

        checker = RevocationChecker(
            PoisonedRpc(), feed_target=None, clock=clock,
            max_staleness=MAX_STALENESS,
        )
        assert checker.refresh() == 0
        assert checker.known_statements(oid) == []
        assert checker.head == 1  # the sync still advanced past the garbage
        checker.check(oid)  # garbage revokes nothing

    def test_integer_issuer_key_dropped_without_allocating(
        self, clock, other_keys, oid
    ):
        """The issuer key is read before any signature check: an integer
        there must be a dropped statement, not ``bytes(10**8)``."""
        body = {
            "oid": oid.to_dict(),
            "scope": "key",
            "serial": 1,
            "issued_at": EPOCH,
            "reason": "a key DER that is a number",
            "issuer_key_der": 10**8,
            "element": None,
            "cert_version": None,
        }
        bogus = Certificate.issue(
            other_keys, REVOCATION_CERT_TYPE, body, not_before=EPOCH
        )

        class BogusRpc:
            def call(self, target, method, **kwargs):
                return {"head": 1, "statements": [bogus.to_dict()]}

        checker = RevocationChecker(
            BogusRpc(), feed_target=None, clock=clock,
            max_staleness=MAX_STALENESS,
        )
        tracemalloc.start()
        try:
            assert checker.refresh() == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert checker.known_statements(oid) == []
        assert peak < 16 * 2**20
        checker.check(oid)  # garbage revokes nothing

    @pytest.mark.parametrize(
        "damage",
        [{"suite": "sha256"}, {"signed": None}],
        ids=["foreign_suite_tag", "no_payload"],
    )
    def test_undecodable_statement_dropped_alone(
        self, clock, shared_keys, other_keys, oid, damage
    ):
        """A statement that does not even decode is dropped by itself;
        the genuine one in the same page still revokes."""
        other_oid = ObjectId.from_public_key(other_keys.public)
        genuine = revoke_key(shared_keys, oid).to_dict()
        broken = revoke_key(other_keys, other_oid).to_dict()
        broken["envelope"] = {**broken["envelope"], **damage}

        class MixedRpc:
            def call(self, target, method, **kwargs):
                return {"head": 2, "statements": [broken, genuine]}

        checker = RevocationChecker(
            MixedRpc(), feed_target=None, clock=clock,
            max_staleness=MAX_STALENESS,
        )
        assert checker.refresh() == 1
        assert checker.known_statements(other_oid) == []
        assert checker.head == 2
        checker.check(other_oid)
        with pytest.raises(RevokedKeyError):
            checker.check(oid)

    def test_replayed_statements_ingested_once(
        self, clock, feed, shared_keys, oid
    ):
        feed.publish(revoke_key(shared_keys, oid))

        class ReplayingRpc:
            """Always serves the full log, whatever `since` says."""

            def call(self, target, method, **kwargs):
                return feed.fetch(since=0)

        checker = RevocationChecker(
            ReplayingRpc(), feed_target=None, clock=clock,
            max_staleness=MAX_STALENESS,
        )
        assert checker.refresh() == 1
        assert checker.refresh() == 0
        assert len(checker.known_statements(oid)) == 1


class TestFirstSightPurges:
    def _primed_verification_cache(self, keys) -> VerificationCache:
        cache = VerificationCache()
        data = canonical_bytes({"doc": "payload"})
        signature = keys.sign(data)
        cache.verify(keys.public, signature, data)  # records verdict
        assert cache.lookup(keys.public, signature, data)
        return cache

    def test_verification_cache_purged(
        self, rpc, clock, feed, shared_keys, oid
    ):
        cache = self._primed_verification_cache(shared_keys)
        checker = RevocationChecker(
            rpc, feed_target=None, clock=clock, max_staleness=MAX_STALENESS,
            verification_cache=cache,
        )
        feed.publish(revoke_key(shared_keys, oid))
        checker.refresh()
        assert len(cache) == 0
        data = canonical_bytes({"doc": "payload"})
        signature = shared_keys.sign(data)
        assert not cache.lookup(shared_keys.public, signature, data)

    def test_content_cache_purged_by_scope(
        self, rpc, clock, feed, shared_keys, other_keys, oid
    ):
        content = ContentCache(clock=clock)
        expires = clock.now() + 3600.0
        content.put(oid.hex, PageElement("index.html", b"a"), expires)
        content.put(oid.hex, PageElement("logo.gif", b"b"), expires)
        other_oid = ObjectId.from_public_key(other_keys.public)
        content.put(other_oid.hex, PageElement("index.html", b"c"), expires)
        checker = RevocationChecker(
            rpc, feed_target=None, clock=clock, max_staleness=MAX_STALENESS,
            content_cache=content,
        )
        # Element scope purges exactly the condemned element …
        feed.publish(
            RevocationStatement.revoke_element(
                shared_keys, oid, element="index.html", cert_version=1,
                serial=1, issued_at=EPOCH,
            )
        )
        checker.refresh()
        assert len(content) == 2
        assert content.get(oid.hex, "index.html") is None
        assert content.get(oid.hex, "logo.gif") is not None
        # … key scope purges the whole object, leaving others alone.
        feed.publish(revoke_key(shared_keys, oid, serial=2))
        checker.refresh()
        assert content.get(oid.hex, "logo.gif") is None
        assert content.get(other_oid.hex, "index.html") is not None
