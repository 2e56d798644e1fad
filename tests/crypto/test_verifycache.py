"""The verification fast path: memoized RSA checks must never weaken
tamper evidence, and the cache must respect its bounds and expiries."""

from __future__ import annotations

import pytest

from repro.crypto import hashes
from repro.crypto.hashes import SHA256
from repro.crypto.signing import SignedEnvelope
from repro.crypto.verifycache import KEY_DIGEST, VerificationCache
from repro.errors import SignatureError
from repro.util.encoding import canonical_bytes


@pytest.fixture
def cache():
    return VerificationCache()


def _sign(keys, payload):
    data = canonical_bytes(payload)
    return data, keys.sign(data)


class TestTamperEvidence:
    """A hit requires the *exact* (key, payload, signature) tuple."""

    def test_hit_only_after_success(self, cache, shared_keys):
        data, sig = _sign(shared_keys, {"a": 1})
        assert not cache.lookup(shared_keys.public, sig, data)
        assert not cache.verify(shared_keys.public, sig, data)  # real RSA ran
        assert cache.verify(shared_keys.public, sig, data)  # now a hit

    def test_modified_payload_never_hits(self, cache, shared_keys):
        data, sig = _sign(shared_keys, {"a": 1})
        cache.verify(shared_keys.public, sig, data)
        tampered = canonical_bytes({"a": 2})
        assert not cache.lookup(shared_keys.public, sig, tampered)
        with pytest.raises(SignatureError):
            cache.verify(shared_keys.public, sig, tampered)

    def test_different_key_never_hits(self, cache, shared_keys, other_keys):
        data, sig = _sign(shared_keys, {"a": 1})
        cache.verify(shared_keys.public, sig, data)
        assert not cache.lookup(other_keys.public, sig, data)
        with pytest.raises(SignatureError):
            cache.verify(other_keys.public, sig, data)

    def test_keys_are_sha256_whatever_the_suite(self, cache, shared_keys):
        """A SHA-1 collision must not alias a cached verdict: the cache
        keys with SHA-256 under the paper's SHA-1 suite."""
        assert hashes.SUITE.name == "sha1" and KEY_DIGEST is SHA256
        data, sig = _sign(shared_keys, {"a": 1})
        cache.verify(shared_keys.public, sig, data)
        [(fingerprint, payload_digest, _)] = list(cache._entries)
        assert fingerprint == SHA256.digest(shared_keys.public.der)
        assert payload_digest == SHA256.digest(data)

    def test_different_signature_never_hits(self, cache, shared_keys):
        data, sig = _sign(shared_keys, {"a": 1})
        cache.verify(shared_keys.public, sig, data)
        forged = bytes(len(sig))
        assert not cache.lookup(shared_keys.public, forged, data)

    def test_failed_verification_not_recorded(self, cache, shared_keys, other_keys):
        data, sig = _sign(shared_keys, {"a": 1})
        with pytest.raises(SignatureError):
            cache.verify(other_keys.public, sig, data)
        assert len(cache) == 0
        # Retrying the same bad input re-pays (and re-fails) the RSA.
        with pytest.raises(SignatureError):
            cache.verify(other_keys.public, sig, data)

    def test_wrong_payload_digest_cannot_poison(self, cache, shared_keys):
        # A caller passing the digest of payload A while recording
        # payload B would key the entry under A's digest — but lookups
        # for A still carry A's signature, which differs, so no alias.
        data_a, sig_a = _sign(shared_keys, {"a": 1})
        data_b, sig_b = _sign(shared_keys, {"b": 2})
        digest_a = KEY_DIGEST.digest(data_a)
        cache.verify(shared_keys.public, sig_b, data_b, payload_digest=digest_a)
        assert not cache.lookup(shared_keys.public, sig_a, data_a)


class TestExpiry:
    def test_hit_refused_past_certificate_expiry(self, cache, shared_keys):
        data, sig = _sign(shared_keys, {"a": 1})
        cache.verify(shared_keys.public, sig, data, expires_at=100.0)
        assert cache.lookup(shared_keys.public, sig, data, now=99.0)
        assert not cache.lookup(shared_keys.public, sig, data, now=101.0)
        assert len(cache) == 0

    def test_lookup_evicts_only_expired_entries(self, cache, shared_keys):
        signed = []
        for i, expiry in enumerate((50.0, 150.0, None)):
            data, sig = _sign(shared_keys, {"i": i})
            cache.verify(shared_keys.public, sig, data, expires_at=expiry)
            signed.append((sig, data))
        hits = [cache.lookup(shared_keys.public, s, d, now=100.0) for s, d in signed]
        assert hits == [False, True, True]
        assert len(cache) == 2
        # Entries without expiry never age out.
        hits = [cache.lookup(shared_keys.public, s, d, now=1e18) for s, d in signed[1:]]
        assert hits == [False, True]
        assert len(cache) == 1


class TestBounds:
    def test_entry_bound_evicts_lru(self, shared_keys):
        cache = VerificationCache(max_entries=2)
        signed = [_sign(shared_keys, {"i": i}) for i in range(3)]
        for data, sig in signed:
            cache.verify(shared_keys.public, sig, data)
        assert len(cache) == 2
        data0, sig0 = signed[0]
        assert not cache.lookup(shared_keys.public, sig0, data0)
        data2, sig2 = signed[2]
        assert cache.lookup(shared_keys.public, sig2, data2)

    def test_byte_bound_evicts(self, shared_keys):
        data, sig = _sign(shared_keys, {"a": 1})
        probe = VerificationCache()
        probe.verify(shared_keys.public, sig, data)
        entry_bytes = probe.bytes_used
        cache = VerificationCache(max_bytes=entry_bytes + entry_bytes // 2)
        signed = [_sign(shared_keys, {"i": i}) for i in range(3)]
        for d, s in signed:
            cache.verify(shared_keys.public, s, d)
        assert len(cache) == 1
        assert cache.bytes_used <= cache.max_bytes
        hits = [cache.lookup(shared_keys.public, s, d) for d, s in signed]
        assert hits == [False, False, True]

    def test_lookup_refreshes_lru_position(self, shared_keys):
        cache = VerificationCache(max_entries=2)
        signed = [_sign(shared_keys, {"i": i}) for i in range(3)]
        for data, sig in signed[:2]:
            cache.verify(shared_keys.public, sig, data)
        data0, sig0 = signed[0]
        assert cache.lookup(shared_keys.public, sig0, data0)  # 0 now MRU
        data2, sig2 = signed[2]
        cache.verify(shared_keys.public, sig2, data2)  # evicts 1, not 0
        assert cache.lookup(shared_keys.public, sig0, data0)

    def test_bounds_must_be_positive(self):
        with pytest.raises(ValueError):
            VerificationCache(max_entries=0)
        with pytest.raises(ValueError):
            VerificationCache(max_bytes=0)


class TestStats:
    def test_counters(self, cache, shared_keys):
        data, sig = _sign(shared_keys, {"a": 1})
        cache.verify(shared_keys.public, sig, data)
        cache.verify(shared_keys.public, sig, data)
        cache.verify(shared_keys.public, sig, data)
        assert cache.stats.hits == 2
        assert cache.stats.misses == 1
        assert cache.stats.snapshot() == (2, 1)

    def test_clear_empties_but_keeps_stats(self, cache, shared_keys):
        data, sig = _sign(shared_keys, {"a": 1})
        cache.verify(shared_keys.public, sig, data)
        cache.clear()
        assert len(cache) == 0
        assert cache.bytes_used == 0
        assert cache.stats.misses == 1


class TestEnvelopeFastPath:
    """The cache as envelopes use it, including the intern pool, which
    serves the payload form only."""

    def test_envelope_verify_with_cache(self, shared_keys):
        cache = VerificationCache()
        env = SignedEnvelope.create(shared_keys, {"msg": "hello"})
        assert env.verify(shared_keys.public, cache=cache) == {"msg": "hello"}
        assert env.verify(shared_keys.public, cache=cache) == {"msg": "hello"}
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_reparsed_envelope_is_interned(self, shared_keys):
        env = SignedEnvelope.create(shared_keys, {"msg": "hello"})
        wire = env.to_payload_dict()
        first = SignedEnvelope.from_payload_dict(wire)
        second = SignedEnvelope.from_payload_dict(wire)
        assert second is first

    def test_tampered_wire_never_aliases_interned_instance(self, shared_keys):
        env = SignedEnvelope.create(shared_keys, {"msg": "hello"})
        wire = env.to_payload_dict()
        good = SignedEnvelope.from_payload_dict(wire)
        evil_wire = dict(wire, payload={"msg": "evil"})
        evil = SignedEnvelope.from_payload_dict(evil_wire)
        assert evil is not good
        with pytest.raises(SignatureError):
            evil.verify(shared_keys.public, cache=VerificationCache())

    def test_interned_warm_verify_hits_across_reparses(self, shared_keys):
        cache = VerificationCache()
        env = SignedEnvelope.create(shared_keys, {"msg": "hello"})
        wire = env.to_payload_dict()
        for _ in range(3):
            SignedEnvelope.from_payload_dict(wire).verify(shared_keys.public, cache=cache)
        assert cache.stats.hits == 2 and cache.stats.misses == 1

    def test_signed_form_never_consults_the_pool(self, shared_keys):
        from repro.crypto import signing

        env = SignedEnvelope.create(shared_keys, {"msg": "hello"})
        first = SignedEnvelope.from_dict(env.to_dict())
        assert first.signed_bytes == env.signed_bytes
        assert SignedEnvelope.from_dict(env.to_dict()) is not first
        assert not signing._intern_pool

    def test_intern_pool_is_bounded(self, shared_keys):
        from repro.crypto import signing

        wires = []
        for i in range(5):
            env = SignedEnvelope.create(shared_keys, {"i": i})
            wires.append(env.to_payload_dict())
        old_max = signing._INTERN_MAX
        signing._INTERN_MAX = 2
        try:
            SignedEnvelope.clear_intern_pool()
            parsed = [SignedEnvelope.from_payload_dict(w) for w in wires]
            assert len(signing._intern_pool) == 2
            # The two most recent survive; older ones re-parse fresh.
            assert SignedEnvelope.from_payload_dict(wires[-1]) is parsed[-1]
            assert SignedEnvelope.from_payload_dict(wires[0]) is not parsed[0]
        finally:
            signing._INTERN_MAX = old_max
            SignedEnvelope.clear_intern_pool()


class TestRevocationInvalidation:
    """invalidate_key: the revocation checker's first-sight purge. Every
    verdict under the revoked key must vanish; other keys keep theirs."""

    def test_purges_all_entries_under_key(self, cache, shared_keys):
        for i in range(3):
            data, sig = _sign(shared_keys, {"doc": i})
            cache.verify(shared_keys.public, sig, data)
        assert cache.invalidate_key(shared_keys.public) == 3
        data, sig = _sign(shared_keys, {"doc": 0})
        assert not cache.lookup(shared_keys.public, sig, data)

    def test_other_keys_survive(self, cache, shared_keys, other_keys):
        revoked_data, revoked_sig = _sign(shared_keys, {"a": 1})
        cache.verify(shared_keys.public, revoked_sig, revoked_data)
        other_data, other_sig = _sign(other_keys, {"a": 1})
        cache.verify(other_keys.public, other_sig, other_data)
        assert cache.invalidate_key(shared_keys.public) == 1
        assert cache.lookup(other_keys.public, other_sig, other_data)

    def test_empty_cache_is_noop(self, cache, shared_keys):
        assert cache.invalidate_key(shared_keys.public) == 0
        assert len(cache) == 0
