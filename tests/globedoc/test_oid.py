"""Self-certifying OIDs: derivation, matching, the 160-bit property."""

from __future__ import annotations

import pytest

from repro.crypto import hashes
from repro.crypto.hashes import SHA256
from repro.errors import AuthenticityError, CryptoError, ReproError
from repro.globedoc.oid import ObjectId


class TestDerivation:
    def test_160_bits(self, shared_keys):
        oid = ObjectId.from_public_key(shared_keys.public)
        assert oid.bits == 160  # "a 160-bit number" (§2)
        assert len(oid.hex) == 40

    def test_deterministic(self, shared_keys):
        a = ObjectId.from_public_key(shared_keys.public)
        b = ObjectId.from_public_key(shared_keys.public)
        assert a == b

    def test_distinct_keys_distinct_oids(self, shared_keys, other_keys):
        assert ObjectId.from_public_key(shared_keys.public) != ObjectId.from_public_key(
            other_keys.public
        )

    def test_sha256_variant(self, shared_keys, sha256_suite):
        oid = ObjectId.from_public_key(shared_keys.public)
        assert oid.bits == 256
        assert ObjectId.from_hex(oid.hex) == oid

    def test_wrong_digest_length_rejected(self):
        with pytest.raises(ReproError):
            ObjectId(digest=b"short")

    def test_hex_roundtrip(self, shared_keys):
        oid = ObjectId.from_public_key(shared_keys.public)
        assert ObjectId.from_hex(oid.hex) == oid

    def test_invalid_hex_rejected(self):
        with pytest.raises(ReproError):
            ObjectId.from_hex("zz" * 20)

    def test_hex_of_another_suite_rejected(self):
        """No length guess: a 64-hex OID is malformed under SHA-1."""
        with pytest.raises(ReproError):
            ObjectId.from_hex("ab" * 32)

    def test_dict_roundtrip(self, shared_keys):
        oid = ObjectId.from_public_key(shared_keys.public)
        assert ObjectId.from_dict(oid.to_dict()) == oid

    @pytest.mark.parametrize("tag", ["sha256", "md5", None])
    def test_foreign_suite_tag_rejected(self, shared_keys, tag):
        wire = ObjectId.from_public_key(shared_keys.public).to_dict()
        with pytest.raises(CryptoError, match="hash suite"):
            ObjectId.from_dict({**wire, "suite": tag})


class TestSelfCertification:
    def test_matches_own_key(self, shared_keys):
        oid = ObjectId.from_public_key(shared_keys.public)
        assert oid.matches_key(shared_keys.public)
        assert oid.check_key(shared_keys.public) is shared_keys.public

    def test_rejects_other_key(self, shared_keys, other_keys):
        """The keystone check: a replica presenting a different key is
        provably not part of the object (§3.1.2)."""
        oid = ObjectId.from_public_key(shared_keys.public)
        assert not oid.matches_key(other_keys.public)
        with pytest.raises(AuthenticityError):
            oid.check_key(other_keys.public)

    def test_suite_mismatch_means_no_match(self, shared_keys, monkeypatch):
        oid_sha1 = ObjectId.from_public_key(shared_keys.public)
        monkeypatch.setattr(hashes, "SUITE", SHA256)
        oid_sha256 = ObjectId.from_public_key(shared_keys.public)
        # Same key; matching uses the one suite, so the SHA-1 OID misses.
        assert oid_sha256.matches_key(shared_keys.public)
        assert not oid_sha1.matches_key(shared_keys.public)
        assert oid_sha256.hex != oid_sha1.hex
