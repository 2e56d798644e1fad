"""Revocation statements: self-certifying, permanent, scope-exact.

A statement is only as good as what it refuses: a key that does not hash
to the stated OID, a signature from anyone but that key, or a malformed
scope must all fail verification — the feed and every client re-verify
independently, so these tests pin the statement down in isolation.
"""

from __future__ import annotations

import pytest

from repro.crypto.certificates import Certificate
from repro.errors import AuthenticityError, CertificateError, SecurityError
from repro.globedoc.oid import ObjectId
from repro.revocation.statement import (
    REVOCATION_CERT_TYPE,
    SCOPE_ELEMENT,
    SCOPE_KEY,
    RevocationStatement,
)
from repro.sim.clock import SimClock
from tests.conftest import EPOCH


@pytest.fixture(scope="module")
def oid(shared_keys) -> ObjectId:
    return ObjectId.from_public_key(shared_keys.public)


def _forged(victim_oid, signing_keys, embedded_key) -> RevocationStatement:
    """A statement for *victim_oid* built outside the issuing guard."""
    body = {
        "oid": victim_oid.to_dict(),
        "scope": SCOPE_KEY,
        "serial": 1,
        "issued_at": EPOCH,
        "reason": "forged",
        "issuer_key_der": embedded_key.der,
        "element": None,
        "cert_version": None,
    }
    certificate = Certificate.issue(
        signing_keys, REVOCATION_CERT_TYPE, body, not_before=EPOCH
    )
    return RevocationStatement(certificate)


class TestIssue:
    def test_key_scope_fields(self, shared_keys, oid):
        statement = RevocationStatement.revoke_key(
            shared_keys, oid, serial=3, issued_at=EPOCH, reason="compromise"
        )
        assert statement.scope == SCOPE_KEY
        assert statement.oid_hex == oid.hex
        assert statement.serial == 3
        assert statement.issued_at == EPOCH
        assert statement.reason == "compromise"
        assert statement.element is None
        assert statement.cert_version is None
        assert statement.issuer_key.der == shared_keys.public.der

    def test_element_scope_fields(self, shared_keys, oid):
        statement = RevocationStatement.revoke_element(
            shared_keys, oid, element="index.html", cert_version=2,
            serial=1, issued_at=EPOCH,
        )
        assert statement.scope == SCOPE_ELEMENT
        assert statement.element == "index.html"
        assert statement.cert_version == 2

    def test_wrong_key_refused(self, shared_keys, other_keys):
        """The OID must self-certify the signing key at issue time."""
        oid_of_other = ObjectId.from_public_key(other_keys.public)
        with pytest.raises(AuthenticityError):
            RevocationStatement.revoke_key(
                shared_keys, oid_of_other, serial=1, issued_at=EPOCH
            )

    def test_serial_must_be_positive(self, shared_keys, oid):
        with pytest.raises(CertificateError):
            RevocationStatement.revoke_key(
                shared_keys, oid, serial=0, issued_at=EPOCH
            )

    def test_element_scope_needs_name_and_version(self, shared_keys, oid):
        with pytest.raises(CertificateError):
            RevocationStatement.revoke_element(
                shared_keys, oid, element="", cert_version=1,
                serial=1, issued_at=EPOCH,
            )
        with pytest.raises(CertificateError):
            RevocationStatement.revoke_element(
                shared_keys, oid, element="index.html", cert_version=0,
                serial=1, issued_at=EPOCH,
            )


class TestVerify:
    def test_roundtrip_verifies(self, shared_keys, oid):
        statement = RevocationStatement.revoke_key(
            shared_keys, oid, serial=1, issued_at=EPOCH
        )
        decoded = RevocationStatement.from_dict(statement.to_dict())
        assert decoded.verify() is decoded
        assert decoded.oid_hex == oid.hex and decoded.serial == 1

    def test_never_expires(self, shared_keys, oid):
        """Revocation is permanent: a decade-later verify still passes
        (the certificate's validity window is never enforced)."""
        statement = RevocationStatement.revoke_key(
            shared_keys, oid, serial=1, issued_at=EPOCH
        )
        decade_later = SimClock(EPOCH + 10 * 365 * 24 * 3600.0)
        assert statement.verify(clock=decade_later) is statement

    def test_embedded_key_must_hash_to_oid(self, shared_keys, oid, other_keys):
        forged = _forged(oid, other_keys, other_keys.public)
        with pytest.raises(AuthenticityError):
            forged.verify()

    def test_signature_must_come_from_embedded_key(
        self, shared_keys, oid, other_keys
    ):
        """Embedding the victim's key but signing with another fails the
        signature check — an attacker cannot revoke someone else's OID."""
        forged = _forged(oid, other_keys, shared_keys.public)
        with pytest.raises((SecurityError, CertificateError)):
            forged.verify()


class TestCovers:
    def test_key_scope_covers_everything(self, shared_keys, oid):
        statement = RevocationStatement.revoke_key(
            shared_keys, oid, serial=1, issued_at=EPOCH
        )
        assert statement.covers(None, None)
        assert statement.covers("anything.html", 99)

    def test_element_scope_is_version_bounded(self, shared_keys, oid):
        statement = RevocationStatement.revoke_element(
            shared_keys, oid, element="index.html", cert_version=2,
            serial=1, issued_at=EPOCH,
        )
        assert statement.covers("index.html", 1)
        assert statement.covers("index.html", 2)
        # A re-issued (version-bumped) certificate escapes the statement.
        assert not statement.covers("index.html", 3)
        assert not statement.covers("logo.gif", 1)
        assert not statement.covers(None, 1)

    def test_unknown_version_fails_closed(self, shared_keys, oid):
        statement = RevocationStatement.revoke_element(
            shared_keys, oid, element="index.html", cert_version=2,
            serial=1, issued_at=EPOCH,
        )
        assert statement.covers("index.html", None)
