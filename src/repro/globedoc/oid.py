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
from typing import Optional

from repro.crypto.hashes import HashSuite, SHA1, SHA256, suite_by_name
from repro.crypto.keys import PublicKey
from repro.errors import AuthenticityError, ReproError
from repro.util.encoding import wire_bytes

__all__ = ["ObjectId"]


@dataclass(frozen=True)
class ObjectId:
    """A self-certifying OID: ``digest = suite(hash of public-key DER)``."""

    digest: bytes
    suite_name: str = SHA1.name

    def __post_init__(self) -> None:
        suite = suite_by_name(self.suite_name)
        if len(self.digest) != suite.digest_size:
            raise ReproError(
                f"OID digest must be {suite.digest_size} bytes for "
                f"{self.suite_name}, got {len(self.digest)}"
            )

    @classmethod
    def from_public_key(cls, key: PublicKey, suite: HashSuite = SHA1) -> "ObjectId":
        """Derive the OID of the object owning *key*."""
        return cls(digest=key.fingerprint(suite), suite_name=suite.name)

    @classmethod
    def from_hex(cls, text: str, suite: Optional[HashSuite] = None) -> "ObjectId":
        """Parse the hex form used in hybrid URLs and resource records.

        When *suite* is omitted it is inferred from the digest length
        (40 hex chars → SHA-1, 64 → SHA-256), so OID-form hybrid URLs
        work for every supported suite.
        """
        try:
            raw = bytes.fromhex(text)
        except ValueError as exc:
            raise ReproError(f"invalid OID hex: {text!r}") from exc
        if suite is None:
            for candidate in (SHA1, SHA256):
                if len(raw) == candidate.digest_size:
                    suite = candidate
                    break
            else:
                raise ReproError(
                    f"OID hex length {len(text)} matches no known hash suite"
                )
        return cls(digest=raw, suite_name=suite.name)

    @property
    def suite(self) -> HashSuite:
        return suite_by_name(self.suite_name)

    @property
    def hex(self) -> str:
        """Hex rendering (40 chars for SHA-1) used in URLs and records."""
        return self.digest.hex()

    @property
    def bits(self) -> int:
        return len(self.digest) * 8

    def matches_key(self, key: PublicKey) -> bool:
        """Does *key* hash to this OID? (The self-certification check.)"""
        return key.fingerprint(self.suite) == self.digest

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
        return {"digest": self.digest, "suite": self.suite_name}

    @classmethod
    def from_dict(cls, data) -> "ObjectId":
        return cls(digest=wire_bytes(data["digest"]), suite_name=str(data["suite"]))

    def __str__(self) -> str:
        return self.hex

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ObjectId({self.hex[:16]}…, {self.suite_name})"
