"""Hash suites: known vectors, streaming equivalence, the one SUITE."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import hashes
from repro.crypto.hashes import SHA1, SHA256, HashSuite, digest, hexdigest
from repro.errors import CryptoError


class TestKnownVectors:
    def test_sha1_abc(self):
        # FIPS 180-1 test vector, the standard the paper cites.
        assert SHA1.hexdigest(b"abc") == "a9993e364706816aba3e25717850c26c9cd0d89d"

    def test_sha256_abc(self):
        assert (
            SHA256.hexdigest(b"abc")
            == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_digest_sizes(self):
        assert SHA1.digest_size == 20
        assert SHA256.digest_size == 32
        assert len(SHA1.digest(b"")) == 20
        assert len(SHA256.digest(b"")) == 32


class TestApi:
    def test_default_suite_is_sha1(self):
        assert hashes.SUITE is SHA1
        assert digest(b"x") == SHA1.digest(b"x")
        assert hexdigest(b"x") == SHA1.hexdigest(b"x")

    def test_module_digest_reads_suite_at_call_time(self, sha256_suite):
        assert digest(b"x") == SHA256.digest(b"x")
        assert hexdigest(b"a", b"b") == SHA256.hexdigest(b"ab")

    def test_multi_chunk_equals_concatenation(self):
        assert SHA1.digest(b"ab", b"cd") == SHA1.digest(b"abcd")

    def test_unknown_suite_rejected(self):
        with pytest.raises(CryptoError):
            HashSuite(name="md5", digest_size=16).signature_hash()

    def test_signature_hash_types(self):
        assert SHA1.signature_hash().name == "sha1"
        assert SHA256.signature_hash().name == "sha256"


class TestStreaming:
    @given(st.lists(st.binary(max_size=128), max_size=10))
    def test_stream_equals_oneshot(self, chunks):
        whole = b"".join(chunks)
        assert SHA1.digest_stream(chunks) == SHA1.digest(whole)
        assert SHA256.digest_stream(chunks) == SHA256.digest(whole)

    @given(st.binary(max_size=1024))
    def test_matches_hashlib(self, data):
        assert SHA1.digest(data) == hashlib.sha1(data).digest()
        assert SHA256.digest(data) == hashlib.sha256(data).digest()
