"""The revocation feed: append-only, idempotent, serial-monotone."""

from __future__ import annotations

import pytest

from repro.crypto.certificates import Certificate
from repro.errors import AuthenticityError, ReproError
from repro.globedoc.oid import ObjectId
from repro.revocation.feed import RevocationFeed
from repro.revocation.statement import REVOCATION_CERT_TYPE, RevocationStatement
from tests.conftest import EPOCH


@pytest.fixture(scope="module")
def oid(shared_keys) -> ObjectId:
    return ObjectId.from_public_key(shared_keys.public)


def revoke(keys, oid, serial, reason="test"):
    return RevocationStatement.revoke_key(
        keys, oid, serial=serial, issued_at=EPOCH, reason=reason
    )


class TestPublish:
    def test_append_and_head(self, shared_keys, oid):
        feed = RevocationFeed()
        assert feed.publish(revoke(shared_keys, oid, 1)) is True
        assert feed.head == 1 and len(feed) == 1

    def test_identical_republish_is_idempotent(self, shared_keys, oid):
        """An exact replay of a published statement is a no-op."""
        feed = RevocationFeed()
        statement = revoke(shared_keys, oid, 1)
        feed.publish(statement)
        assert feed.publish(statement) is False
        assert feed.head == 1
        assert feed.statements() == [statement]

    def test_payload_mismatched_republish_rejected(self, shared_keys, oid):
        """Reusing a published (OID, serial) with *different* content is
        a poisoning attempt (it would shadow the genuine statement and
        desynchronise WAL replay), never a benign duplicate."""
        feed = RevocationFeed()
        genuine = revoke(shared_keys, oid, 1)
        feed.publish(genuine)
        with pytest.raises(ReproError, match="payload differs"):
            feed.publish(revoke(shared_keys, oid, 1, reason="replayed"))
        assert feed.head == 1
        assert feed.statements() == [genuine]

    def test_non_monotone_serial_rejected(self, shared_keys, oid):
        feed = RevocationFeed()
        genuine = revoke(shared_keys, oid, 2)
        feed.publish(genuine)
        with pytest.raises(ReproError):
            feed.publish(revoke(shared_keys, oid, 1))
        assert feed.statements() == [genuine]
        assert feed.head == 1

    def test_forged_statement_rejected(self, other_keys, oid):
        """A statement whose embedded key does not hash to its OID never
        enters the log — publish verifies before appending."""
        body = {
            "oid": oid.to_dict(),
            "scope": "key",
            "serial": 1,
            "issued_at": EPOCH,
            "reason": "forged",
            "issuer_key_der": other_keys.public.der,
            "element": None,
            "cert_version": None,
        }
        forged = RevocationStatement(
            Certificate.issue(
                other_keys, REVOCATION_CERT_TYPE, body, not_before=EPOCH
            )
        )
        feed = RevocationFeed()
        with pytest.raises(AuthenticityError):
            feed.publish(forged)
        assert feed.head == 0


class TestConsumption:
    def test_delta_fetch(self, shared_keys, other_keys, oid):
        feed = RevocationFeed()
        other_oid = ObjectId.from_public_key(other_keys.public)
        feed.publish(revoke(shared_keys, oid, 1))
        feed.publish(revoke(other_keys, other_oid, 1))
        answer = feed.fetch(since=1)
        assert answer["head"] == 2
        statements = [RevocationStatement.from_dict(d) for d in answer["statements"]]
        assert [s.oid_hex for s in statements] == [other_oid.hex]
        # A consumer at the head gets an empty delta.
        assert feed.fetch(since=2)["statements"] == []

    def test_statements_for_filters_by_oid(self, shared_keys, other_keys, oid):
        feed = RevocationFeed()
        other_oid = ObjectId.from_public_key(other_keys.public)
        feed.publish(revoke(shared_keys, oid, 1))
        feed.publish(revoke(other_keys, other_oid, 1))
        assert [s.oid_hex for s in feed.statements_for(oid.hex)] == [oid.hex]
        assert feed.statements_for("00" * 20) == []
