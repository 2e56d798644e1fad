"""Certificate authorities, identity certificates, and user trust stores.

Per §3.1.2, secure naming binds a self-certifying OID to a real-world
entity in two ways: (1) the OID *is* the hash of the object public key,
and (2) for sensitive applications the object can present an *identity
certificate* signed by a CA the user trusts. The user keeps the public
keys of her trusted CAs in a :class:`TrustStore` held by her proxy; the
proxy asks the object's security interface for a certificate matching
that list and displays the certified name ("Certified as:" window).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Mapping, Optional

from repro.crypto.certificates import Certificate
from repro.crypto.keys import KeyPair, PublicKey
from repro.errors import CertificateError
from repro.sim.clock import Clock
from repro.util.encoding import wire_bytes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.crypto.verifycache import VerificationCache

__all__ = ["CertificateAuthority", "IdentityCertificate", "TrustStore"]

IDENTITY_CERT_TYPE = "globedoc/identity"


@dataclass(frozen=True)
class IdentityCertificate:
    """A CA-signed binding: (subject name, subject public key, issuer).

    ``subject_key_der`` is the DER encoding of the *object's* public key,
    so the proxy can check the certificate speaks about the key it has
    already matched against the OID.
    """

    certificate: Certificate

    @classmethod
    def issue(
        cls,
        ca: "CertificateAuthority",
        subject_name: str,
        subject_key: PublicKey,
        not_before: Optional[float] = None,
        not_after: Optional[float] = None,
    ) -> "IdentityCertificate":
        body = {
            "subject_name": subject_name,
            "subject_key_der": subject_key.der,
            "issuer_name": ca.name,
            "issuer_key_der": ca.keys.public.der,
        }
        cert = Certificate.issue(
            ca.keys,
            IDENTITY_CERT_TYPE,
            body,
            not_before=not_before,
            not_after=not_after,
        )
        return cls(certificate=cert)

    @property
    def subject_name(self) -> str:
        return str(self.certificate.body["subject_name"])

    @property
    def subject_key(self) -> PublicKey:
        return PublicKey(der=wire_bytes(self.certificate.body["subject_key_der"]))

    @property
    def issuer_name(self) -> str:
        return str(self.certificate.body["issuer_name"])

    @property
    def issuer_key(self) -> PublicKey:
        return PublicKey(der=wire_bytes(self.certificate.body["issuer_key_der"]))

    def verify(
        self,
        issuer_key: PublicKey,
        clock: Optional[Clock] = None,
        expected_subject_key: Optional[PublicKey] = None,
        cache: Optional["VerificationCache"] = None,
    ) -> str:
        """Validate against the *trusted* issuer key; return the subject name.

        ``issuer_key`` must come from the user's trust store, never from
        the certificate itself (the embedded issuer key is informational).
        """
        self.certificate.verify(
            issuer_key, clock=clock, expected_type=IDENTITY_CERT_TYPE, cache=cache
        )
        if expected_subject_key is not None and self.subject_key != expected_subject_key:
            raise CertificateError(
                "identity certificate subject key does not match the object key"
            )
        return self.subject_name

    def to_dict(self) -> dict:
        return self.certificate.to_dict()

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "IdentityCertificate":
        cert = Certificate.from_dict(data)
        if cert.cert_type != IDENTITY_CERT_TYPE:
            raise CertificateError(
                f"not an identity certificate: type={cert.cert_type!r}"
            )
        return cls(certificate=cert)


class CertificateAuthority:
    """A trusted third party that certifies object-key ↔ name bindings."""

    def __init__(self, name: str, keys: Optional[KeyPair] = None) -> None:
        self.name = name
        self.keys = keys if keys is not None else KeyPair.generate()
        self._issued: List[IdentityCertificate] = []

    @property
    def public_key(self) -> PublicKey:
        return self.keys.public

    def certify(
        self,
        subject_name: str,
        subject_key: PublicKey,
        not_before: Optional[float] = None,
        not_after: Optional[float] = None,
    ) -> IdentityCertificate:
        """Issue an identity certificate for *subject_name* / *subject_key*."""
        cert = IdentityCertificate.issue(
            self, subject_name, subject_key, not_before=not_before, not_after=not_after
        )
        self._issued.append(cert)
        return cert

    @property
    def issued_count(self) -> int:
        return len(self._issued)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CertificateAuthority(name={self.name!r})"


@dataclass
class TrustStore:
    """The user-side list of trusted CA public keys (§3.1.2, SDSI-style).

    The user, not the infrastructure, decides which CAs to trust; the
    proxy consults this store when evaluating object identity proofs.
    """

    _cas: Dict[str, PublicKey] = field(default_factory=dict)

    def add(self, ca_name: str, key: PublicKey) -> None:
        """Trust *ca_name* with public key *key* (overwrites existing)."""
        self._cas[ca_name] = key

    def add_ca(self, ca: CertificateAuthority) -> None:
        """Convenience: trust a locally constructed CA."""
        self.add(ca.name, ca.public_key)

    def remove(self, ca_name: str) -> None:
        self._cas.pop(ca_name, None)

    def trusted_key(self, ca_name: str) -> Optional[PublicKey]:
        return self._cas.get(ca_name)

    def trusts(self, ca_name: str) -> bool:
        return ca_name in self._cas

    def __len__(self) -> int:
        return len(self._cas)

    def names(self) -> List[str]:
        return sorted(self._cas)

    def first_match(
        self,
        certificates: Iterable[IdentityCertificate],
        clock: Optional[Clock] = None,
        expected_subject_key: Optional[PublicKey] = None,
        cache: Optional["VerificationCache"] = None,
    ) -> Optional[IdentityCertificate]:
        """Return the first certificate issued by a trusted CA that verifies.

        Mirrors §3.1.2: "For the first match found, the proxy displays
        the naming information in the certificate." Certificates from
        unknown CAs or failing verification are skipped, not fatal. With
        a *cache*, repeated matching of the same certificate skips the
        RSA operation (the validity window is still checked each time).
        """
        for cert in certificates:
            key = self._cas.get(cert.issuer_name)
            if key is None:
                continue
            try:
                cert.verify(
                    key,
                    clock=clock,
                    expected_subject_key=expected_subject_key,
                    cache=cache,
                )
            except CertificateError:
                continue
            return cert
        return None
