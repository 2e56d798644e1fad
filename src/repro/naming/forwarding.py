"""Signed OID forwarding records (re-keying support).

An OID is the hash of the object's public key, so re-keying an object
necessarily mints a *new* OID — and orphans every absolute hybrid URL
carrying the old one. A forwarding record closes the gap: a statement
"``from_oid`` has moved to ``to_oid``", signed with the **old** key and
therefore self-certifying against the old OID, published through the
naming service next to ordinary name records.

Trust note: the old key is, in the emergency-re-key case, *compromised*
— so an attacker holding it could publish a competing forwarding record
pointing at an attacker OID. That is exactly as strong as the attack the
revocation subsystem already contains: the successor object named by a
forwarding record is verified end-to-end like any other GlobeDoc (its
own key hashes to ``to_oid``), so a hijacked forward can redirect stale
URLs only to a *fully verified, attacker-owned* object — the same power
as publishing any new document — never inject content into the victim's
name. Human-readable names re-bind to the successor OID through the
(independently keyed) naming service and are untouched by old-key
compromise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.crypto.certificates import Certificate
from repro.crypto.keys import KeyPair, PublicKey
from repro.errors import AuthenticityError, CertificateError
from repro.globedoc.oid import ObjectId
from repro.util.encoding import wire_bytes

__all__ = ["ForwardingRecord", "FORWARDING_CERT_TYPE"]

FORWARDING_CERT_TYPE = "naming/forwarding"


@dataclass(frozen=True)
class ForwardingRecord:
    """A signed ``old OID → successor OID`` redirection."""

    certificate: Certificate

    @classmethod
    def issue(
        cls,
        old_keys: KeyPair,
        from_oid: ObjectId,
        to_oid: ObjectId,
        issued_at: float,
    ) -> "ForwardingRecord":
        if not from_oid.matches_key(old_keys.public):
            raise AuthenticityError(
                "forwarding record must be signed by the key the old OID "
                "self-certifies"
            )
        if from_oid.hex == to_oid.hex:
            raise CertificateError("forwarding record cannot point at itself")
        body = {
            "from_oid": from_oid.to_dict(),
            "to_oid": to_oid.to_dict(),
            "issued_at": float(issued_at),
            "issuer_key_der": old_keys.public.der,
        }
        return cls(
            Certificate.issue(
                old_keys, FORWARDING_CERT_TYPE, body, not_before=issued_at
            )
        )

    @property
    def from_oid(self) -> ObjectId:
        return ObjectId.from_dict(self.certificate.body["from_oid"])

    @property
    def to_oid(self) -> ObjectId:
        return ObjectId.from_dict(self.certificate.body["to_oid"])

    @property
    def issued_at(self) -> float:
        return float(self.certificate.body["issued_at"])

    @property
    def issuer_key(self) -> PublicKey:
        return PublicKey(der=wire_bytes(self.certificate.body["issuer_key_der"]))

    def verify(self, cache=None) -> "ForwardingRecord":
        """Self-certifying validation: embedded key hashes to the old
        OID and signs the record. Returns self; raises on failure."""
        from_oid = self.from_oid
        issuer_key = self.issuer_key
        if not from_oid.matches_key(issuer_key):
            raise AuthenticityError(
                f"forwarding record for {from_oid.hex[:12]}… embeds a key "
                "that does not hash to that OID"
            )
        self.certificate.verify(
            issuer_key, clock=None, expected_type=FORWARDING_CERT_TYPE, cache=cache
        )
        if self.from_oid.hex == self.to_oid.hex:
            raise CertificateError("forwarding record points at itself")
        return self

    def to_dict(self) -> dict:
        return self.certificate.to_dict()

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ForwardingRecord":
        return cls(Certificate.from_dict(data))
