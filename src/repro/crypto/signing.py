"""Signing of structured payloads.

Certificates and resource records are dict-like structures; they are
signed over their *canonical encoding* (:mod:`repro.util.encoding`), so a
signature made by owner tooling on one host verifies bit-exactly on any
other. :class:`SignedEnvelope` bundles a payload with its signature for
transport.

Fast path: an envelope's payload is immutable once signed, so its
canonical encoding is computed at most once per instance and memoized —
repeated verifications stop re-serializing the same bytes.
Verification can additionally consult a
:class:`~repro.crypto.verifycache.VerificationCache` to replay a
previously successful RSA check without re-running the RSA operation.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Optional

from repro.crypto.hashes import HashSuite, SHA1, suite_by_name
from repro.crypto.keys import KeyPair, PublicKey
from repro.errors import SignatureError
from repro.util.encoding import canonical_bytes, to_wire

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.crypto.verifycache import VerificationCache

__all__ = ["sign_payload", "verify_payload", "SignedEnvelope"]

#: Bound on the parsed-envelope intern pool (LRU).
_INTERN_MAX = 1024

#: Parsed-envelope intern pool: (signature, suite_name) -> envelope.
#: Hits are guarded by full payload equality in ``from_dict``.
_intern_pool: "OrderedDict[tuple, SignedEnvelope]" = OrderedDict()


def sign_payload(signer: KeyPair, payload: Any, suite: HashSuite = SHA1) -> bytes:
    """Sign the canonical encoding of *payload*."""
    return signer.sign(canonical_bytes(payload), suite=suite)


def verify_payload(
    key: PublicKey,
    signature: bytes,
    payload: Any,
    suite: HashSuite = SHA1,
    cache: Optional["VerificationCache"] = None,
    now: Optional[float] = None,
    expires_at: Optional[float] = None,
) -> None:
    """Verify *signature* over the canonical encoding of *payload*.

    With a *cache*, a previously successful verification of the same
    (key, suite, payload, signature) tuple is replayed without the RSA
    operation; see :mod:`repro.crypto.verifycache` for why that is safe.
    Raises :class:`~repro.errors.SignatureError` on failure.
    """
    verify_bytes(
        key, signature, canonical_bytes(payload), suite,
        cache=cache, now=now, expires_at=expires_at,
    )


def verify_bytes(
    key: PublicKey,
    signature: bytes,
    data: bytes,
    suite: HashSuite,
    cache: Optional["VerificationCache"] = None,
    now: Optional[float] = None,
    expires_at: Optional[float] = None,
) -> None:
    """Verify over pre-encoded canonical bytes (cache-aware core)."""
    if cache is None:
        key.verify(signature, data, suite=suite)
    else:
        cache.verify(key, signature, data, suite, now=now, expires_at=expires_at)


@dataclass(frozen=True)
class SignedEnvelope:
    """A payload plus detached signature, self-describing its hash suite.

    This is the unit stored on untrusted object servers: the server can
    forward it but cannot alter the payload without breaking the
    signature. The payload must be treated as immutable after
    construction — the canonical encoding is memoized on first use.
    """

    payload: Mapping[str, Any]
    signature: bytes
    suite_name: str = SHA1.name

    @classmethod
    def create(
        cls, signer: KeyPair, payload: Mapping[str, Any], suite: HashSuite = SHA1
    ) -> "SignedEnvelope":
        """Sign *payload* and wrap it."""
        frozen = dict(payload)
        data = canonical_bytes(frozen)
        envelope = cls(
            payload=frozen,
            signature=signer.sign(data, suite=suite),
            suite_name=suite.name,
        )
        # The bytes just signed are the bytes any verifier will encode;
        # seed the memo so owner-side code never re-serializes either.
        envelope.__dict__["_signed_bytes"] = data
        return envelope

    @property
    def suite(self) -> HashSuite:
        return suite_by_name(self.suite_name)

    @property
    def signed_bytes(self) -> bytes:
        """The canonical encoding of the payload (memoized)."""
        data = self.__dict__.get("_signed_bytes")
        if data is None:
            data = canonical_bytes(self.payload)
            self.__dict__["_signed_bytes"] = data
        return data

    def payload_digest(self, suite: HashSuite) -> bytes:
        """Digest of :attr:`signed_bytes` under *suite* (memoized per
        suite) — the payload component of verification-cache keys."""
        cache = self.__dict__.setdefault("_payload_digests", {})
        digest = cache.get(suite.name)
        if digest is None:
            digest = suite.digest(self.signed_bytes)
            cache[suite.name] = digest
        return digest

    def verify(
        self,
        key: PublicKey,
        cache: Optional["VerificationCache"] = None,
        now: Optional[float] = None,
        expires_at: Optional[float] = None,
    ) -> Mapping[str, Any]:
        """Verify the signature; return the payload on success."""
        if cache is None:
            key.verify(self.signature, self.signed_bytes, suite=self.suite)
        else:
            cache.verify(
                key,
                self.signature,
                self.signed_bytes,
                self.suite,
                now=now,
                expires_at=expires_at,
                payload_digest=self.payload_digest(cache.digest_suite),
            )
        return self.payload

    def to_dict(self) -> dict:
        """Wire representation (canonically encodable)."""
        return {
            "payload": dict(self.payload),
            "signature": self.signature,
            "suite": self.suite_name,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SignedEnvelope":
        """Inverse of :meth:`to_dict`; validates structure.

        Parsed envelopes are *interned*: re-parsing the same signed
        structure (same signature, suite, and byte-for-byte equal
        payload) returns the previously built instance, so its memoized
        canonical encoding and payload digests survive round trips
        through the wire format. The full payload equality
        guard means a tampered payload can never alias a cached one —
        it simply constructs a fresh (and soon to fail) envelope.
        """
        try:
            payload = data["payload"]
            signature = data["signature"]
            suite_name = data["suite"]
        except (KeyError, TypeError) as exc:
            raise SignatureError(f"malformed signed envelope: {exc}") from exc
        if not isinstance(payload, Mapping) or not isinstance(signature, bytes):
            raise SignatureError("malformed signed envelope fields")
        suite_name = str(suite_name)
        intern_key = (signature, suite_name)
        cached = _intern_pool.get(intern_key)
        if cached is not None and cached.payload == payload:
            _intern_pool.move_to_end(intern_key)
            return cached
        envelope = cls(payload=dict(payload), signature=signature, suite_name=suite_name)
        _intern_pool[intern_key] = envelope
        while len(_intern_pool) > _INTERN_MAX:
            _intern_pool.popitem(last=False)
        return envelope

    @staticmethod
    def clear_intern_pool() -> None:
        """Drop all interned envelopes (test isolation, cold benchmarks)."""
        _intern_pool.clear()

    @property
    def wire_size(self) -> int:
        """Bytes of its wire frame, for transfer accounting."""
        return len(to_wire(self.to_dict()))
