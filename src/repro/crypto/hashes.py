"""The hash suite: one decision, made here.

The paper fixes the hash: an OID is the 160-bit SHA-1 of the object key
(§2, §3.1.2), and element digests and RSA signatures use the same hash.
:data:`SUITE` is that choice. Every other module reads it through this
module at call time (``hashes.SUITE``, :func:`digest`), so changing the
one line ``SUITE = SHA1`` moves OIDs, element digests, Merkle roots and
signatures together; ``tests/integration/test_sha256_suite.py`` runs the
stack on SHA-256 that way. Wire and at-rest records still carry the
suite's name as a ``"suite"`` tag, and decoders reject any tag other
than ``SUITE.name``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Union

from cryptography.hazmat.primitives import hashes as _crypto_hashes

from repro.errors import CryptoError
from repro.util.tally import TALLY

__all__ = ["HashSuite", "SHA1", "SHA256", "SUITE", "digest", "hexdigest"]

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

#: Modern suite: what :data:`SUITE` becomes when SHA-1 is retired.
SHA256 = HashSuite(name="sha256", digest_size=32)

#: The suite the whole stack signs, names and hashes with.
SUITE = SHA1


def digest(*chunks: _BytesLike) -> bytes:
    """:data:`SUITE` digest of the concatenation of *chunks*."""
    return SUITE.digest(*chunks)


def hexdigest(*chunks: _BytesLike) -> str:
    """:data:`SUITE` hex digest of the concatenation of *chunks*."""
    return SUITE.hexdigest(*chunks)
