"""Writer grants: the owner-signed capability that admits a writer."""

from __future__ import annotations

import pytest

from repro.errors import AuthenticityError, CertificateError, SecurityError
from repro.globedoc.oid import ObjectId
from repro.versioning import WriterGrant

from tests.conftest import fast_keys


class TestIssue:
    def test_grant_verifies_under_object_key(self, owner_keys, oid, clock):
        writer = fast_keys()
        grant = WriterGrant.issue(
            owner_keys, oid, "alice", writer.public, granted_at=clock.now()
        )
        grant.verify(owner_keys.public, oid, clock=clock)
        assert grant.writer_id == "alice"
        assert grant.writer_key == writer.public

    def test_non_owner_cannot_issue(self, oid, clock):
        mallory = fast_keys()
        with pytest.raises(AuthenticityError):
            WriterGrant.issue(
                mallory, oid, "alice", fast_keys().public, granted_at=clock.now()
            )

    def test_empty_writer_id_refused(self, owner_keys, oid, clock):
        with pytest.raises(CertificateError):
            WriterGrant.issue(
                owner_keys, oid, "", fast_keys().public, granted_at=clock.now()
            )


class TestVerify:
    def test_wrong_object_key_rejected(self, owner_keys, oid, clock):
        grant = WriterGrant.issue(
            owner_keys, oid, "alice", fast_keys().public, granted_at=clock.now()
        )
        with pytest.raises(SecurityError):
            grant.verify(fast_keys().public, oid, clock=clock)

    def test_cross_object_grant_rejected(self, owner_keys, oid, clock):
        grant = WriterGrant.issue(
            owner_keys, oid, "alice", fast_keys().public, granted_at=clock.now()
        )
        other_keys = fast_keys()
        other_oid = ObjectId.from_public_key(other_keys.public)
        with pytest.raises(SecurityError):
            grant.verify(other_keys.public, other_oid, clock=clock)

    def test_wire_roundtrip_preserves_verification(self, owner_keys, oid, clock):
        grant = WriterGrant.issue(
            owner_keys, oid, "alice", fast_keys().public, granted_at=clock.now()
        )
        revived = WriterGrant.from_dict(grant.to_dict())
        revived.verify(owner_keys.public, oid, clock=clock)
        assert revived.writer_id == grant.writer_id

    def test_tampered_writer_id_rejected(self, owner_keys, oid, clock):
        grant = WriterGrant.issue(
            owner_keys, oid, "alice", fast_keys().public, granted_at=clock.now()
        )
        data = grant.to_dict()
        data["envelope"]["payload"]["body"]["writer_id"] = "mallory"
        with pytest.raises(SecurityError):
            WriterGrant.from_dict(data).verify(owner_keys.public, oid, clock=clock)
