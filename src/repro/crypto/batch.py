"""Batched RSA signature verification.

The per-element security check re-verifies the same integrity
certificate under the same replica key for every element of one
document: N elements means N identical (key, payload, signature)
tuples. :func:`verify_batch` amortizes that — it canonical-encodes and
digests each distinct envelope once, groups items by verification tuple,
runs *one* RSA operation per distinct tuple, and replays the verdict to
every member of the group. With a :class:`~repro.crypto.verifycache
.VerificationCache` attached, a group whose tuple is already memoized
costs zero RSA operations and a fresh success is recorded for the
sequential path to reuse.

Verdicts are per-item and never raised: a batch with one tampered
envelope still verifies its genuine siblings, and the caller decides
what each failure means. The failure an item receives is exactly the
:class:`~repro.errors.SignatureError` the sequential
:meth:`SignedEnvelope.verify` would have raised for it — batching
changes the amortization, never the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto.keys import PublicKey
from repro.crypto.signing import SignedEnvelope
from repro.crypto.verifycache import VerificationCache

__all__ = ["BatchItem", "verify_batch"]


@dataclass(frozen=True)
class BatchItem:
    """One (key, envelope) verification request in a batch.

    ``expires_at`` bounds a cached verdict's lifetime exactly as in the
    sequential path (the integrity certificate's ``not_after``).
    """

    key: PublicKey
    envelope: SignedEnvelope
    expires_at: Optional[float] = None


def verify_batch(
    items: Sequence[BatchItem],
    cache: Optional[VerificationCache] = None,
    now: Optional[float] = None,
) -> List[Optional[Exception]]:
    """Verify every item, one RSA operation per *distinct* tuple.

    Returns a verdict list aligned with *items*: ``None`` for a valid
    signature, the would-be-raised exception otherwise. Items deduplicate
    on the full verification tuple — key, payload digest, signature — so
    only byte-identical verifications share a verdict; a tampered
    duplicate lands in its own group and fails alone.
    """
    items = list(items)
    verdicts: List[Optional[Exception]] = [None] * len(items)
    groups: Dict[tuple, List[int]] = {}
    keys: Dict[tuple, Tuple[PublicKey, SignedEnvelope]] = {}
    for index, item in enumerate(items):
        envelope = item.envelope
        try:
            tuple_key = (item.key.der, envelope.cache_digest, bytes(envelope.signature))
        except Exception as exc:
            # Malformed key/envelope: the sequential path would raise on
            # this item alone; keep the failure item-local.
            verdicts[index] = exc
            continue
        groups.setdefault(tuple_key, []).append(index)
        keys.setdefault(tuple_key, (item.key, envelope))
    for tuple_key, members in groups.items():
        key, envelope = keys[tuple_key]
        # The tightest expiry in the group governs the cached verdict —
        # a shared entry must not outlive any member's certificate.
        expiries = [
            items[i].expires_at for i in members if items[i].expires_at is not None
        ]
        expires_at = min(expiries) if expiries else None
        verdict = _verify_one(key, envelope, cache, now, expires_at)
        for index in members:
            verdicts[index] = verdict
    return verdicts


def _verify_one(
    key: PublicKey,
    envelope: SignedEnvelope,
    cache: Optional[VerificationCache],
    now: Optional[float],
    expires_at: Optional[float],
) -> Optional[Exception]:
    try:
        envelope.verify(key, cache=cache, now=now, expires_at=expires_at)
    except Exception as exc:
        return exc
    return None
