"""Structured payload signing and the SignedEnvelope wire format."""

from __future__ import annotations

import pytest

from repro.crypto.signing import SignedEnvelope, sign_payload, verify_payload
from repro.errors import SignatureError


class TestPayloadSigning:
    def test_roundtrip(self, shared_keys):
        payload = {"a": 1, "data": b"\x00\x01", "nested": {"x": [1, 2]}}
        sig = sign_payload(shared_keys, payload)
        verify_payload(shared_keys.public, sig, payload)

    def test_key_order_insensitive(self, shared_keys):
        sig = sign_payload(shared_keys, {"b": 2, "a": 1})
        verify_payload(shared_keys.public, sig, {"a": 1, "b": 2})

    def test_value_change_detected(self, shared_keys):
        sig = sign_payload(shared_keys, {"a": 1})
        with pytest.raises(SignatureError):
            verify_payload(shared_keys.public, sig, {"a": 2})

    def test_added_field_detected(self, shared_keys):
        sig = sign_payload(shared_keys, {"a": 1})
        with pytest.raises(SignatureError):
            verify_payload(shared_keys.public, sig, {"a": 1, "extra": True})


class TestSignedEnvelope:
    def test_create_and_verify(self, shared_keys):
        env = SignedEnvelope.create(shared_keys, {"msg": "hello"})
        assert env.verify(shared_keys.public) == {"msg": "hello"}

    def test_wrong_key_rejected(self, shared_keys, other_keys):
        env = SignedEnvelope.create(shared_keys, {"msg": "hello"})
        with pytest.raises(SignatureError):
            env.verify(other_keys.public)

    def test_tampered_payload_rejected(self, shared_keys):
        env = SignedEnvelope.create(shared_keys, {"msg": "hello"})
        forged = SignedEnvelope(
            payload={"msg": "evil"}, signature=env.signature
        )
        with pytest.raises(SignatureError):
            forged.verify(shared_keys.public)

    def test_dict_roundtrip(self, shared_keys):
        env = SignedEnvelope.create(shared_keys, {"msg": "hello", "raw": b"\x01"})
        restored = SignedEnvelope.from_dict(env.to_dict())
        assert restored.verify(shared_keys.public) == env.payload

    def test_roundtrip_through_wire_bytes(self, shared_keys):
        from repro.util.encoding import canonical_bytes, from_canonical_bytes

        env = SignedEnvelope.create(shared_keys, {"msg": "hello"})
        wire = canonical_bytes(env.to_dict())
        restored = SignedEnvelope.from_dict(from_canonical_bytes(wire))
        restored.verify(shared_keys.public)

    def test_malformed_dict_rejected(self):
        with pytest.raises(SignatureError):
            SignedEnvelope.from_dict({"payload": {}})

    def test_suite_carried(self, shared_keys, sha256_suite):
        env = SignedEnvelope.create(shared_keys, {"m": 1})
        assert env.to_dict()["suite"] == "sha256"
        restored = SignedEnvelope.from_dict(env.to_dict())
        restored.verify(shared_keys.public)

    @pytest.mark.parametrize("tag", ["sha256", "SHA1", "md5", None, 1])
    def test_foreign_suite_tag_rejected(self, shared_keys, tag):
        """The tag is checked, never obeyed: only ``SUITE.name`` decodes."""
        wire = SignedEnvelope.create(shared_keys, {"m": 1}).to_dict()
        with pytest.raises(SignatureError, match="hash suite"):
            SignedEnvelope.from_dict({**wire, "suite": tag})

    def test_wire_size_positive(self, shared_keys):
        env = SignedEnvelope.create(shared_keys, {"m": 1})
        # Signature (128 B for RSA-1024) plus payload plus framing.
        assert env.wire_size > 128
