"""Batched verification: same verdicts as per-item verify, fewer RSA ops."""

from __future__ import annotations

import pytest

from repro.crypto.batch import BatchItem, verify_batch
from repro.crypto.keys import PublicKey
from repro.crypto.signing import SignedEnvelope
from repro.crypto.verifycache import VerificationCache
from repro.errors import SignatureError


def sequential_verdict(item, cache=None, now=None):
    """What the unbatched path would do with this exact item."""
    try:
        item.envelope.verify(
            item.key, cache=cache, now=now, expires_at=item.expires_at
        )
    except Exception as exc:
        return exc
    return None


def flip_signature(envelope):
    bad = bytes([envelope.signature[0] ^ 0xFF]) + envelope.signature[1:]
    return SignedEnvelope(payload=envelope.payload, signature=bad)


def swap_payload(envelope, payload):
    return SignedEnvelope(payload=payload, signature=envelope.signature)


@pytest.fixture
def rsa_counter(monkeypatch):
    """Counts real RSA verify operations (cache hits don't reach here)."""
    counts = {"ops": 0}
    original = PublicKey.verify

    def counting(self, *args, **kwargs):
        counts["ops"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(PublicKey, "verify", counting)
    return counts


class TestVerdictEquivalence:
    """Batching changes the amortization, never the verdict."""

    def tamper_modes(self, shared_keys, other_keys):
        genuine = SignedEnvelope.create(shared_keys, {"doc": "index", "rev": 3})
        return [
            ("valid", BatchItem(shared_keys.public, genuine)),
            ("wrong_key", BatchItem(other_keys.public, genuine)),
            ("flipped_signature", BatchItem(shared_keys.public, flip_signature(genuine))),
            (
                "tampered_payload",
                BatchItem(
                    shared_keys.public, swap_payload(genuine, {"doc": "evil", "rev": 3})
                ),
            ),
            (
                "added_field",
                BatchItem(
                    shared_keys.public,
                    swap_payload(genuine, {"doc": "index", "rev": 3, "x": 1}),
                ),
            ),
        ]

    @pytest.mark.parametrize("use_cache", [False, True], ids=["nocache", "cache"])
    def test_every_mode_matches_per_item_verify(
        self, shared_keys, other_keys, use_cache
    ):
        modes = self.tamper_modes(shared_keys, other_keys)
        cache = VerificationCache() if use_cache else None
        verdicts = verify_batch([item for _, item in modes], cache=cache)
        for (mode, item), verdict in zip(modes, verdicts):
            expected = sequential_verdict(item)
            if expected is None:
                assert verdict is None, f"{mode}: batch rejected a valid item"
            else:
                assert type(verdict) is type(expected), mode
                assert isinstance(verdict, SignatureError), mode

    def test_one_bad_item_does_not_poison_siblings(self, shared_keys):
        genuine = SignedEnvelope.create(shared_keys, {"n": 1})
        verdicts = verify_batch(
            [
                BatchItem(shared_keys.public, genuine),
                BatchItem(shared_keys.public, flip_signature(genuine)),
                BatchItem(shared_keys.public, genuine),
            ]
        )
        assert verdicts[0] is None
        assert isinstance(verdicts[1], SignatureError)
        assert verdicts[2] is None

    def test_never_raises_on_malformed_item(self, shared_keys):
        genuine = SignedEnvelope.create(shared_keys, {"n": 1})
        # Not canonically encodable: fails while building its dedupe key.
        broken = SignedEnvelope(payload={"n": object()}, signature=b"\x00" * 4)
        verdicts = verify_batch(
            [
                BatchItem(shared_keys.public, broken),
                BatchItem(shared_keys.public, genuine),
            ]
        )
        assert isinstance(verdicts[0], Exception)
        assert verdicts[1] is None

    def test_empty_batch(self):
        assert verify_batch([]) == []


class TestDeduplication:
    def test_identical_items_cost_one_rsa_op(self, shared_keys, rsa_counter):
        envelope = SignedEnvelope.create(shared_keys, {"n": 1})
        items = [BatchItem(shared_keys.public, envelope) for _ in range(6)]
        verdicts = verify_batch(items)
        assert verdicts == [None] * 6
        assert rsa_counter["ops"] == 1

    def test_distinct_payloads_verify_separately(self, shared_keys, rsa_counter):
        items = [
            BatchItem(shared_keys.public, SignedEnvelope.create(shared_keys, {"n": i}))
            for i in range(3)
        ]
        assert verify_batch(items) == [None] * 3
        assert rsa_counter["ops"] == 3

    def test_tampered_duplicate_fails_alone(self, shared_keys):
        genuine = SignedEnvelope.create(shared_keys, {"n": 1})
        verdicts = verify_batch(
            [
                BatchItem(shared_keys.public, genuine),
                BatchItem(shared_keys.public, flip_signature(genuine)),
                BatchItem(shared_keys.public, genuine),
            ]
        )
        # The forged copy must not share the genuine group's verdict.
        assert verdicts[0] is None and verdicts[2] is None
        assert isinstance(verdicts[1], SignatureError)


class TestCacheInterplay:
    def test_batch_success_lands_in_cache(self, shared_keys):
        cache = VerificationCache()
        envelope = SignedEnvelope.create(shared_keys, {"n": 1})
        verify_batch([BatchItem(shared_keys.public, envelope)], cache=cache)
        assert cache.stats.misses == 1
        # The sequential path now gets a hit off the batch's work.
        envelope.verify(shared_keys.public, cache=cache)
        assert cache.stats.hits == 1

    def test_warm_cache_costs_zero_rsa_ops(self, shared_keys, rsa_counter):
        cache = VerificationCache()
        envelope = SignedEnvelope.create(shared_keys, {"n": 1})
        verify_batch([BatchItem(shared_keys.public, envelope)], cache=cache)
        assert rsa_counter["ops"] == 1
        verify_batch(
            [BatchItem(shared_keys.public, envelope) for _ in range(4)], cache=cache
        )
        assert rsa_counter["ops"] == 1  # all four served from the cache

    def test_group_expiry_is_tightest_member(self, shared_keys):
        cache = VerificationCache()
        envelope = SignedEnvelope.create(shared_keys, {"n": 1})
        verify_batch(
            [
                BatchItem(shared_keys.public, envelope, expires_at=100.0),
                BatchItem(shared_keys.public, envelope, expires_at=10.0),
            ],
            cache=cache,
            now=0.0,
        )
        # Past the tighter expiry the shared entry must be dead.
        assert not cache.lookup(
            shared_keys.public,
            envelope.signature,
            envelope.signed_bytes,
            now=50.0,
        )

    def test_expired_entry_reverifies_instead_of_serving_stale(
        self, shared_keys, rsa_counter
    ):
        cache = VerificationCache()
        envelope = SignedEnvelope.create(shared_keys, {"n": 1})
        item = BatchItem(shared_keys.public, envelope, expires_at=10.0)
        assert verify_batch([item], cache=cache, now=0.0) == [None]
        assert verify_batch([item], cache=cache, now=20.0) == [None]
        assert rsa_counter["ops"] == 2
        assert cache.stats.hits == 0
