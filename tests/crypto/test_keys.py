"""Key pairs: generation, serialization, signing, verification."""

from __future__ import annotations

import pytest

from repro.crypto import hashes
from repro.crypto.hashes import SHA1, SHA256
from repro.crypto.keys import KeyPair, PublicKey, rsa_encrypt
from repro.errors import CryptoError, SignatureError
from tests.conftest import FAST_BITS


class TestGeneration:
    def test_bit_size(self, shared_keys):
        assert shared_keys.bit_size == FAST_BITS

    def test_rejects_weak_keys(self):
        with pytest.raises(CryptoError):
            KeyPair.generate(512)

    def test_unique_keys(self, shared_keys, other_keys):
        assert shared_keys.public != other_keys.public


class TestSignatures:
    def test_sign_verify_roundtrip(self, shared_keys):
        sig = shared_keys.sign(b"payload")
        shared_keys.public.verify(sig, b"payload")  # no raise

    def test_wrong_payload_rejected(self, shared_keys):
        sig = shared_keys.sign(b"payload")
        with pytest.raises(SignatureError):
            shared_keys.public.verify(sig, b"other payload")

    def test_wrong_key_rejected(self, shared_keys, other_keys):
        sig = shared_keys.sign(b"payload")
        with pytest.raises(SignatureError):
            other_keys.public.verify(sig, b"payload")

    def test_corrupted_signature_rejected(self, shared_keys):
        sig = bytearray(shared_keys.sign(b"payload"))
        sig[0] ^= 0xFF
        with pytest.raises(SignatureError):
            shared_keys.public.verify(bytes(sig), b"payload")

    def test_garbage_signature_rejected(self, shared_keys):
        with pytest.raises(SignatureError):
            shared_keys.public.verify(b"not a signature", b"payload")

    @pytest.mark.parametrize("suite", [SHA1, SHA256])
    def test_both_suites(self, shared_keys, suite, monkeypatch):
        monkeypatch.setattr(hashes, "SUITE", suite)
        sig = shared_keys.sign(b"data")
        shared_keys.public.verify(sig, b"data")

    def test_suite_mismatch_rejected(self, shared_keys, monkeypatch):
        sig = shared_keys.sign(b"data")
        monkeypatch.setattr(hashes, "SUITE", SHA256)
        with pytest.raises(SignatureError):
            shared_keys.public.verify(sig, b"data")


class TestSerialization:
    def test_pem_roundtrip(self, shared_keys):
        pem = shared_keys.to_pem()
        restored = KeyPair.from_pem(pem)
        assert restored.public == shared_keys.public

    def test_encrypted_pem_roundtrip(self, shared_keys):
        pem = shared_keys.to_pem(password=b"hunter2")
        restored = KeyPair.from_pem(pem, password=b"hunter2")
        assert restored.public == shared_keys.public

    def test_wrong_password_rejected(self, shared_keys):
        pem = shared_keys.to_pem(password=b"hunter2")
        with pytest.raises(CryptoError):
            KeyPair.from_pem(pem, password=b"wrong")

    def test_invalid_pem_rejected(self):
        with pytest.raises(CryptoError):
            KeyPair.from_pem(b"not pem at all")

    def test_public_key_der_stable(self, shared_keys):
        assert shared_keys.public.der == KeyPair.from_pem(shared_keys.to_pem()).public.der

    def test_invalid_public_der_rejected(self):
        with pytest.raises(CryptoError):
            PublicKey(der=b"garbage").verify(b"x", b"y")


class TestPublicKey:
    def test_fingerprint_size(self, shared_keys, monkeypatch):
        assert len(shared_keys.public.fingerprint()) == 20
        monkeypatch.setattr(hashes, "SUITE", SHA256)
        assert len(shared_keys.public.fingerprint()) == 32

    def test_fingerprint_distinguishes_keys(self, shared_keys, other_keys):
        assert shared_keys.public.fingerprint() != other_keys.public.fingerprint()

    def test_hashable(self, shared_keys, other_keys):
        assert len({shared_keys.public, shared_keys.public, other_keys.public}) == 2


class TestRsaEncryption:
    def test_roundtrip(self, shared_keys):
        ct = rsa_encrypt(shared_keys.public, b"premaster-secret")
        assert shared_keys.decrypt(ct) == b"premaster-secret"

    def test_wrong_key_fails(self, shared_keys, other_keys):
        ct = rsa_encrypt(shared_keys.public, b"premaster-secret")
        with pytest.raises(CryptoError):
            # Either padding failure or garbage output; decrypt raises.
            result = other_keys.decrypt(ct)
            if result != b"premaster-secret":
                raise CryptoError("decryption produced wrong plaintext")
