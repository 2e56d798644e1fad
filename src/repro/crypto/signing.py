"""Signing of structured payloads.

Certificates and resource records are dict-like structures; they are
signed over their *canonical encoding* (:mod:`repro.util.encoding`), so a
signature made by owner tooling on one host verifies bit-exactly on any
other. :class:`SignedEnvelope` bundles a payload with its signature for
transport.

What travels is what was signed: the wire and at-rest form carries the
canonical bytes the signer signed, and decoding parses those bytes, so a
verifier checks the signature over the bytes it received and never
re-encodes a payload. Only a signer encodes. Verification can
additionally consult a
:class:`~repro.crypto.verifycache.VerificationCache` to replay a
previously successful RSA check without re-running the RSA operation.

Signed deltas keep an older *payload form*, the payload as a nested
mapping (:meth:`SignedEnvelope.to_payload_dict`); a verifier of that form
re-encodes the payload, once per instance (the encoding is memoized),
and an intern pool hands a re-parsed delta the instance it already
encoded.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.crypto import hashes
from repro.crypto.keys import KeyPair, PublicKey
from repro.crypto.verifycache import KEY_DIGEST, VerificationCache
from repro.errors import EncodingError, SignatureError
from repro.util.encoding import canonical_bytes, from_canonical_bytes, to_wire, wire_bytes

__all__ = ["sign_payload", "verify_payload", "SignedEnvelope"]

#: Bound on the payload-form intern pool (LRU).
_INTERN_MAX = 1024

#: Payload-form intern pool: signature -> envelope.
#: Hits are guarded by full payload equality in ``from_payload_dict``.
_intern_pool: "OrderedDict[tuple, SignedEnvelope]" = OrderedDict()


def sign_payload(signer: KeyPair, payload: Any) -> bytes:
    """Sign the canonical encoding of *payload*."""
    return signer.sign(canonical_bytes(payload))


def verify_payload(
    key: PublicKey,
    signature: bytes,
    payload: Any,
    cache: Optional[VerificationCache] = None,
    now: Optional[float] = None,
    expires_at: Optional[float] = None,
) -> None:
    """Verify *signature* over the canonical encoding of *payload*.

    With a *cache*, a previously successful verification of the same
    (key, payload, signature) tuple is replayed without the RSA
    operation; see :mod:`repro.crypto.verifycache` for why that is safe.
    Raises :class:`~repro.errors.SignatureError` on failure.
    """
    verify_bytes(
        key, signature, canonical_bytes(payload), cache=cache, now=now, expires_at=expires_at
    )


def verify_bytes(
    key: PublicKey,
    signature: bytes,
    data: bytes,
    cache: Optional[VerificationCache] = None,
    now: Optional[float] = None,
    expires_at: Optional[float] = None,
) -> None:
    """Verify over pre-encoded canonical bytes (cache-aware core)."""
    if cache is None:
        key.verify(signature, data)
    else:
        cache.verify(key, signature, data, now=now, expires_at=expires_at)


@dataclass(frozen=True)
class SignedEnvelope:
    """A payload plus detached signature.

    This is the unit stored on untrusted object servers: the server can
    forward it but cannot alter the payload without breaking the
    signature. The payload must be treated as immutable after
    construction. :attr:`signed_bytes` are the bytes the signer signed
    or, for a decoded envelope, the bytes that were received; only an
    envelope built from a payload alone (the payload form, or a forgery
    in a test) encodes them, once. On the wire it carries the ``"suite"``
    tag of :data:`~repro.crypto.hashes.SUITE`, which the decoders check.
    """

    payload: Mapping[str, Any]
    signature: bytes

    @classmethod
    def create(cls, signer: KeyPair, payload: Mapping[str, Any]) -> "SignedEnvelope":
        """Sign *payload* and wrap it."""
        frozen = dict(payload)
        data = canonical_bytes(frozen)
        return cls._holding(frozen, signer.sign(data), data)

    @classmethod
    def _holding(cls, payload: dict, signature: bytes, signed: bytes) -> "SignedEnvelope":
        """An envelope whose signed bytes are already in hand."""
        envelope = cls(payload=payload, signature=signature)
        envelope.__dict__["_signed_bytes"] = signed
        return envelope

    @property
    def signed_bytes(self) -> bytes:
        """The bytes the signature covers: as signed or received, else
        the canonical encoding of the payload (memoized)."""
        data = self.__dict__.get("_signed_bytes")
        if data is None:
            data = canonical_bytes(self.payload)
            self.__dict__["_signed_bytes"] = data
        return data

    @property
    def payload_digest(self) -> bytes:
        """:data:`~repro.crypto.hashes.SUITE` digest of
        :attr:`signed_bytes` (memoized) — a delta's content address."""
        digest = self.__dict__.get("_payload_digest")
        if digest is None:
            digest = hashes.digest(self.signed_bytes)
            self.__dict__["_payload_digest"] = digest
        return digest

    @property
    def cache_digest(self) -> bytes:
        """:data:`~repro.crypto.verifycache.KEY_DIGEST` digest of
        :attr:`signed_bytes` (memoized) — the payload component of
        verification-cache keys."""
        digest = self.__dict__.get("_cache_digest")
        if digest is None:
            digest = KEY_DIGEST.digest(self.signed_bytes)
            self.__dict__["_cache_digest"] = digest
        return digest

    def verify(
        self,
        key: PublicKey,
        cache: Optional[VerificationCache] = None,
        now: Optional[float] = None,
        expires_at: Optional[float] = None,
    ) -> Mapping[str, Any]:
        """Verify the signature; return the payload on success."""
        if cache is None:
            key.verify(self.signature, self.signed_bytes)
        else:
            cache.verify(
                key,
                self.signature,
                self.signed_bytes,
                now=now,
                expires_at=expires_at,
                payload_digest=self.cache_digest,
            )
        return self.payload

    def to_dict(self) -> dict:
        """Wire and at-rest form: the signed bytes as a raw bytes leaf."""
        return {
            "signed": self.signed_bytes,
            "signature": self.signature,
            "suite": hashes.SUITE.name,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SignedEnvelope":
        """Inverse of :meth:`to_dict`; validates structure and the suite
        tag (anything but ``SUITE.name`` is malformed, never obeyed).

        The received ``signed`` bytes become :attr:`signed_bytes`, what
        verification checks and the cache digests; the payload is parsed
        out of them by :func:`~repro.util.encoding.from_canonical_bytes`,
        and anything it refuses, or a payload that is not a mapping, is
        :class:`~repro.errors.EncodingError`.
        """
        signed, signature = cls._fields(data, "signed")
        signed = wire_bytes(signed)
        payload = from_canonical_bytes(signed)
        if not isinstance(payload, dict):
            raise EncodingError(
                f"signed payload is a {type(payload).__name__}, not a mapping"
            )
        return cls._holding(payload, signature, signed)

    def to_payload_dict(self) -> dict:
        """The payload form, which signed deltas keep: the payload as a
        nested mapping."""
        return {
            "payload": dict(self.payload),
            "signature": self.signature,
            "suite": hashes.SUITE.name,
        }

    @classmethod
    def from_payload_dict(cls, data: Mapping[str, Any]) -> "SignedEnvelope":
        """Inverse of :meth:`to_payload_dict`.

        Parsed envelopes are *interned*: re-parsing the same signed
        structure (same signature, equal payload) returns the previously
        built instance, so its memoized canonical encoding and payload
        digests survive round trips through the wire format. The full
        payload equality guard means a tampered payload can never alias
        a cached one — it simply constructs a fresh (and soon to fail)
        envelope.
        """
        payload, signature = cls._fields(data, "payload")
        if not isinstance(payload, Mapping):
            raise SignatureError("malformed signed envelope fields")
        cached = _intern_pool.get(signature)
        if cached is not None and cached.payload == payload:
            _intern_pool.move_to_end(signature)
            return cached
        envelope = cls(payload=dict(payload), signature=signature)
        _intern_pool[signature] = envelope
        while len(_intern_pool) > _INTERN_MAX:
            _intern_pool.popitem(last=False)
        return envelope

    @staticmethod
    def _fields(data: Mapping[str, Any], carrier: str) -> tuple:
        """*data*'s *carrier* field and signature, its suite checked."""
        try:
            carried = data[carrier]
            signature = data["signature"]
            suite_name = data["suite"]
        except (KeyError, TypeError) as exc:
            raise SignatureError(f"malformed signed envelope: {exc}") from exc
        if not isinstance(signature, bytes):
            raise SignatureError("malformed signed envelope fields")
        if suite_name != hashes.SUITE.name:
            raise SignatureError(
                f"malformed signed envelope: hash suite is not {hashes.SUITE.name}"
            )
        return carried, signature

    @staticmethod
    def clear_intern_pool() -> None:
        """Drop all interned payload-form envelopes (test isolation, cold
        benchmarks)."""
        _intern_pool.clear()

    @property
    def wire_size(self) -> int:
        """Bytes of its wire frame, for transfer accounting."""
        return len(to_wire(self.to_dict()))
