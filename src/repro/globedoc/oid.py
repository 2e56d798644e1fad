"""Self-certifying object identifiers.

§2: every GlobeDoc is identified by a unique 160-bit OID containing no
location information. §3.1.2 makes it *self-certifying*: the OID is the
SHA-1 hash of the object's public key, so whoever holds an OID can check
— without trusting naming, location, or hosting infrastructure — that a
presented public key really belongs to the object. This is the keystone
of the whole security architecture: a malicious location service can at
worst cause denial of service, never impersonation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto import hashes
from repro.crypto.keys import PublicKey
from repro.errors import AuthenticityError, CryptoError, ReproError
from repro.util.encoding import wire_bytes

__all__ = ["ObjectId"]


@dataclass(frozen=True)
class ObjectId:
    """A self-certifying OID: ``digest = SUITE(public-key DER)``."""

    digest: bytes

    def __post_init__(self) -> None:
        size = hashes.SUITE.digest_size
        if len(self.digest) != size:
            raise ReproError(f"OID digest must be {size} bytes, got {len(self.digest)}")

    @classmethod
    def from_public_key(cls, key: PublicKey) -> "ObjectId":
        """Derive the OID of the object owning *key*."""
        return cls(digest=key.fingerprint())

    @classmethod
    def from_hex(cls, text: str) -> "ObjectId":
        """Parse the hex form used in hybrid URLs and resource records."""
        try:
            raw = bytes.fromhex(text)
        except ValueError as exc:
            raise ReproError(f"invalid OID hex: {text!r}") from exc
        return cls(digest=raw)

    @property
    def hex(self) -> str:
        """Hex rendering (40 chars for SHA-1) used in URLs and records."""
        return self.digest.hex()

    @property
    def bits(self) -> int:
        return len(self.digest) * 8

    def matches_key(self, key: PublicKey) -> bool:
        """Does *key* hash to this OID? (The self-certification check.)"""
        return key.fingerprint() == self.digest

    def check_key(self, key: PublicKey) -> PublicKey:
        """Verify *key* against the OID; raise AuthenticityError otherwise.

        This is step 5 of Fig. 3 ("Verify public key"): the proxy fetched
        the key from an *untrusted* replica, and only this check makes it
        trustworthy.
        """
        if not self.matches_key(key):
            raise AuthenticityError(
                f"public key does not hash to OID {self.hex[:16]}… "
                "(replica is not part of the requested object)"
            )
        return key

    def to_dict(self) -> dict:
        return {"digest": self.digest, "suite": hashes.SUITE.name}

    @classmethod
    def from_dict(cls, data) -> "ObjectId":
        """Inverse of :meth:`to_dict`; a ``"suite"`` tag other than
        ``SUITE.name`` is a malformed OID."""
        if data["suite"] != hashes.SUITE.name:
            raise CryptoError(f"malformed OID: hash suite is not {hashes.SUITE.name}")
        return cls(digest=wire_bytes(data["digest"]))

    def __str__(self) -> str:
        return self.hex

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ObjectId({self.hex[:16]}…)"
