"""Memoization of successful RSA signature verifications.

The paper's evaluation (§4, Figs. 5–7) shows that client-side security
checks — above all the RSA verification of the integrity certificate —
dominate GlobeDoc access latency, and argues the cost must be
*amortized* across requests for the model to be practical. This module
is that amortization, made explicit and bounded.

Safety argument
---------------
Under the one signing suite (:data:`repro.crypto.hashes.SUITE`) a
signature verdict is a pure function of ``(public key, payload bytes,
signature bytes)``: for a fixed tuple the verdict can never change. The
cache therefore keys entries on exactly that tuple — ``(key
fingerprint, payload digest, signature)``, both digests under
:data:`KEY_DIGEST` — and stores **only successful** verifications. Any
change to the payload changes its digest, any change to the signature
or key changes the key tuple, so a tampered input can never produce a
hit; it falls through to the real RSA operation, which fails closed.
Failed verifications are never cached (a retry must re-pay the RSA
cost), and the cache skips
*only* the RSA operation — certificate validity windows, type checks,
OID matches, element hashes and freshness checks always run.

Entries carry an optional expiry (the certificate's ``not_after``):
a hit past expiry is refused and the entry evicted, so a long-lived
proxy does not replay verdicts for certificates it should re-examine.
Both an entry count and a byte budget bound the cache (LRU eviction).

The cache is thread-safe: table reads and writes are serialized by an
internal lock (callers may share one cache across threads; the access
pipeline itself runs on the calling thread), but the RSA operation
runs *outside* the lock — concurrent misses may both pay the RSA cost,
never corrupt the table.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.crypto.hashes import SHA256
from repro.crypto.keys import PublicKey

__all__ = ["KEY_DIGEST", "VerificationCache", "VerifyCacheStats"]

#: Rough per-entry bookkeeping overhead (key tuple, OrderedDict node).
_ENTRY_OVERHEAD = 96

#: The hash of the cache's own keys. Always SHA-256, whatever the
#: signing suite is: a SHA-1 collision (two payloads, one digest) must
#: never let a tampered payload alias a cached verdict.
KEY_DIGEST = SHA256


def _fingerprint(key: PublicKey) -> bytes:
    """:data:`KEY_DIGEST` digest of *key*'s DER, memoized on the (frozen)
    key so a key verified many times is hashed once."""
    fingerprint = key.__dict__.get("_cache_fingerprint")
    if fingerprint is None:
        fingerprint = KEY_DIGEST.digest(key.der)
        key.__dict__["_cache_fingerprint"] = fingerprint
    return fingerprint


@dataclass
class VerifyCacheStats:
    """Running counters of one :class:`VerificationCache`."""

    hits: int = 0
    misses: int = 0

    def snapshot(self) -> Tuple[int, int]:
        return (self.hits, self.misses)


@dataclass(frozen=True)
class _Entry:
    nbytes: int
    expires_at: Optional[float]


class VerificationCache:
    """LRU memo of successful signature verifications.

    ``max_entries`` and ``max_bytes`` both bound the cache; whichever is
    hit first triggers LRU eviction.
    """

    def __init__(
        self,
        max_entries: int = 4096,
        max_bytes: int = 4 * 1024 * 1024,
    ) -> None:
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.stats = VerifyCacheStats()
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Key construction
    # ------------------------------------------------------------------

    def _key(
        self,
        key: PublicKey,
        signature: bytes,
        payload: bytes,
        payload_digest: Optional[bytes] = None,
    ) -> tuple:
        if payload_digest is None:
            payload_digest = KEY_DIGEST.digest(payload)
        return (_fingerprint(key), payload_digest, bytes(signature))

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------

    def lookup(
        self,
        key: PublicKey,
        signature: bytes,
        payload: bytes,
        now: Optional[float] = None,
        payload_digest: Optional[bytes] = None,
    ) -> bool:
        """True iff this exact verification already succeeded (and the
        entry has not passed its certificate expiry).

        ``payload_digest`` lets callers that already hold the payload's
        :data:`KEY_DIGEST` digest (e.g. a memoizing envelope) skip the
        re-hash; it MUST be the digest of *payload* under
        :data:`KEY_DIGEST` or tamper evidence is lost.
        """
        cache_key = self._key(key, signature, payload, payload_digest)
        with self._lock:
            entry = self._entries.get(cache_key)
            if entry is None:
                self.stats.misses += 1
                return False
            if (
                entry.expires_at is not None
                and now is not None
                and now > entry.expires_at
            ):
                self._evict(cache_key)
                self.stats.misses += 1
                return False
            self._entries.move_to_end(cache_key)
            self.stats.hits += 1
            return True

    def record(
        self,
        key: PublicKey,
        signature: bytes,
        payload: bytes,
        expires_at: Optional[float] = None,
        payload_digest: Optional[bytes] = None,
    ) -> None:
        """Remember a verification that just *succeeded*.

        Callers must only invoke this after the real RSA operation
        passed — the cache itself never verifies anything on record.
        """
        cache_key = self._key(key, signature, payload, payload_digest)
        nbytes = sum(len(part) for part in cache_key) + _ENTRY_OVERHEAD
        if nbytes > self.max_bytes:
            return
        with self._lock:
            self._evict(cache_key)
            while self._entries and (
                len(self._entries) >= self.max_entries
                or self._bytes + nbytes > self.max_bytes
            ):
                self._evict(next(iter(self._entries)))
            self._entries[cache_key] = _Entry(nbytes=nbytes, expires_at=expires_at)
            self._bytes += nbytes

    def verify(
        self,
        key: PublicKey,
        signature: bytes,
        payload: bytes,
        now: Optional[float] = None,
        expires_at: Optional[float] = None,
        payload_digest: Optional[bytes] = None,
    ) -> bool:
        """The fast path: replay a memoized verdict or run the real RSA.

        Returns True on a cache hit, False when the real operation ran
        (and succeeded). Raises :class:`~repro.errors.SignatureError`
        exactly as :meth:`PublicKey.verify` would on a bad signature —
        in which case nothing is recorded.
        """
        if self.lookup(key, signature, payload, now=now, payload_digest=payload_digest):
            return True
        key.verify(signature, payload)
        self.record(
            key, signature, payload, expires_at=expires_at, payload_digest=payload_digest
        )
        return False

    # ------------------------------------------------------------------
    # Invalidation and bookkeeping
    # ------------------------------------------------------------------

    def invalidate_key(self, key: PublicKey) -> int:
        """Drop every memoized verdict made under *key*.

        The revocation path: a cached success for a now-revoked key is a
        replayable verdict the cache must forget *before* the next
        lookup, or a warm proxy would keep accepting signatures the
        issuer can no longer be trusted for. Returns entries removed.
        """
        fingerprint = _fingerprint(key)
        with self._lock:
            doomed = [
                cache_key for cache_key in self._entries if cache_key[0] == fingerprint
            ]
            for cache_key in doomed:
                self._evict(cache_key)
            return len(doomed)

    def _evict(self, cache_key: tuple) -> None:
        entry = self._entries.pop(cache_key, None)
        if entry is not None:
            self._bytes -= entry.nbytes

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def bytes_used(self) -> int:
        with self._lock:
            return self._bytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VerificationCache({len(self._entries)} entries, {self._bytes}B)"
        )
