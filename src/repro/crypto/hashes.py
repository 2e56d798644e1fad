"""Hash suites.

The paper uses SHA-1 everywhere (element digests, self-certifying OIDs);
SHA-1 is retained as the *paper-faithful default* but the suite is a
first-class parameter so the whole stack runs on SHA-256 as well — the
property tests exercise both. A suite pins the digest used for OIDs and
element hashes *and* the hash underlying RSA signatures, so a GlobeDoc
object is internally consistent.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Union

from cryptography.hazmat.primitives import hashes as _crypto_hashes

from repro.errors import CryptoError
from repro.util.tally import TALLY

__all__ = ["HashSuite", "SHA1", "SHA256", "digest", "hexdigest", "suite_by_name"]

_BytesLike = Union[bytes, bytearray, memoryview]


@dataclass(frozen=True)
class HashSuite:
    """A named hash algorithm with its digest size and signature variant."""

    name: str
    digest_size: int

    def new(self):
        """Fresh streaming hash object (``hashlib`` interface)."""
        return hashlib.new(self.name)

    def digest(self, *chunks: _BytesLike) -> bytes:
        """Digest of the concatenation of *chunks*."""
        return self.digest_stream(chunks)

    def hexdigest(self, *chunks: _BytesLike) -> str:
        return self.digest(*chunks).hex()

    def digest_stream(self, chunks: Iterable[_BytesLike]) -> bytes:
        """Digest of an iterable of chunks (for large elements)."""
        h = self.new()
        hashed = 0
        for chunk in chunks:
            data = bytes(chunk)
            hashed += len(data)
            h.update(data)
        TALLY["hashed"] += hashed
        return h.digest()

    def signature_hash(self) -> _crypto_hashes.HashAlgorithm:
        """The ``cryptography`` hash object used inside RSA signatures."""
        if self.name == "sha1":
            return _crypto_hashes.SHA1()
        if self.name == "sha256":
            return _crypto_hashes.SHA256()
        raise CryptoError(f"no signature hash registered for suite {self.name!r}")


#: Paper-faithful suite: 160-bit SHA-1 (OIDs are "160-bit numbers", §2).
SHA1 = HashSuite(name="sha1", digest_size=20)

#: Modern suite; drop-in replacement everywhere.
SHA256 = HashSuite(name="sha256", digest_size=32)

_SUITES = {s.name: s for s in (SHA1, SHA256)}


def suite_by_name(name: str) -> HashSuite:
    """Look up a registered suite (``"sha1"`` or ``"sha256"``)."""
    try:
        return _SUITES[name.lower()]
    except KeyError:
        raise CryptoError(f"unknown hash suite {name!r}") from None


def digest(data: _BytesLike, suite: HashSuite = SHA1) -> bytes:
    """One-shot digest with the given *suite* (default SHA-1)."""
    return suite.digest(data)


def hexdigest(data: _BytesLike, suite: HashSuite = SHA1) -> str:
    """One-shot hex digest with the given *suite* (default SHA-1)."""
    return suite.hexdigest(data)
