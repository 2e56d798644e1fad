"""Cryptographic substrate for GlobeDoc.

Real cryptography throughout: RSA key pairs and PKCS#1 v1.5 signatures
via the ``cryptography`` package (OpenSSL), digests via ``hashlib``,
both under the one suite :data:`repro.crypto.hashes.SUITE`. The paper's
constructions — self-certifying OIDs, the integrity certificate,
CA-signed identity certificates — are built on these primitives in
:mod:`repro.globedoc` and :mod:`repro.crypto.identity`.
"""

from repro.crypto.keys import KeyPair, PublicKey
from repro.crypto.hashes import digest, hexdigest
from repro.crypto.signing import sign_payload, verify_payload, SignedEnvelope
from repro.crypto.certificates import Certificate
from repro.crypto.identity import (
    CertificateAuthority,
    IdentityCertificate,
    TrustStore,
)
from repro.crypto.merkle import MerkleTree, MerkleProof
from repro.crypto.verifycache import VerificationCache, VerifyCacheStats
from repro.crypto.batch import BatchItem, verify_batch

__all__ = [
    "KeyPair",
    "PublicKey",
    "digest",
    "hexdigest",
    "sign_payload",
    "verify_payload",
    "SignedEnvelope",
    "Certificate",
    "CertificateAuthority",
    "IdentityCertificate",
    "TrustStore",
    "MerkleTree",
    "MerkleProof",
    "VerificationCache",
    "VerifyCacheStats",
    "BatchItem",
    "verify_batch",
]
