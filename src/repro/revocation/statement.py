"""Signed revocation statements.

The paper's integrity certificates contain a validity interval so that a
key compromise is *eventually* contained (§3.2) — but "eventually" is
the certificate's remaining lifetime. A revocation statement closes that
window actively: the owner signs, with the object key itself, a
declaration that either the whole key or one element's certificate row
must no longer be accepted.

Statements are *self-certifying*, like OIDs: the body embeds the issuing
public key, and verification checks that the key hashes to the stated
OID before checking the signature. Anyone — object server, proxy,
auditor — can validate a statement in isolation, with no session state
and no trusted distribution channel; the feed that carries statements is
as untrusted as every other piece of GlobeDoc infrastructure.

A statement carries its issue time and a per-OID monotonically
increasing serial (the feed enforces monotonicity at publish time), and
has **no expiry**: revocation is permanent. An element revocation names
the certificate version it applies to, so a re-issued certificate
(version+1, e.g. after the owner replaces the compromised element) is
not condemned by the old statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.crypto.certificates import Certificate
from repro.crypto.keys import KeyPair, PublicKey
from repro.errors import AuthenticityError, CertificateError
from repro.globedoc.oid import ObjectId
from repro.util.encoding import wire_bytes

__all__ = [
    "RevocationStatement",
    "REVOCATION_CERT_TYPE",
    "SCOPE_KEY",
    "SCOPE_ELEMENT",
    "SCOPE_WRITER",
]

REVOCATION_CERT_TYPE = "globedoc/revocation"

#: Whole-object key revocation: nothing signed by the key is servable.
SCOPE_KEY = "key"
#: Per-element revocation: one certificate row, up to a stated version.
SCOPE_ELEMENT = "element"
#: Writer-grant revocation: one writer's delta-signing authority ends.
#: The object key and the document's served state stay valid — only the
#: named writer's deltas stop merging (multi-writer subsystem).
SCOPE_WRITER = "writer"


@dataclass(frozen=True)
class RevocationStatement:
    """One signed revocation, wrapping the generic certificate base."""

    certificate: Certificate

    # ------------------------------------------------------------------
    # Issuing
    # ------------------------------------------------------------------

    @classmethod
    def revoke_key(
        cls,
        owner_keys: KeyPair,
        oid: ObjectId,
        serial: int,
        issued_at: float,
        reason: str = "key compromise",
    ) -> "RevocationStatement":
        """Revoke the object key itself (scope ``key``)."""
        return cls._issue(
            owner_keys, oid, SCOPE_KEY, serial, issued_at, reason,
            element=None, cert_version=None,
        )

    @classmethod
    def revoke_element(
        cls,
        owner_keys: KeyPair,
        oid: ObjectId,
        element: str,
        cert_version: int,
        serial: int,
        issued_at: float,
        reason: str = "element certificate revoked",
    ) -> "RevocationStatement":
        """Revoke one element's certificate row, for certificate
        versions up to and including *cert_version*."""
        if not element:
            raise CertificateError("element revocation needs an element name")
        if cert_version < 1:
            raise CertificateError(
                f"cert_version must be a published version, got {cert_version}"
            )
        return cls._issue(
            owner_keys, oid, SCOPE_ELEMENT, serial, issued_at, reason,
            element=element, cert_version=cert_version,
        )

    @classmethod
    def revoke_writer(
        cls,
        owner_keys: KeyPair,
        oid: ObjectId,
        writer_id: str,
        serial: int,
        issued_at: float,
        reason: str = "writer grant revoked",
    ) -> "RevocationStatement":
        """Revoke one writer's grant (scope ``writer``).

        Signed with the object key like every statement for this OID;
        the condemned writer id rides in the statement body. The
        semantics are fail-closed and **retroactive**: once a reader's
        verified feed view contains this statement, the frontier check
        rejects any served state containing the writer's deltas with
        :class:`~repro.errors.RevokedWriterError` — pre-revocation
        history included, even where other writers' deltas build on it.
        Revocation is the owner's kill switch, not a selective mute:
        condemning a writer condemns every object state that merged
        their contribution, and the owner re-publishes surviving
        content under untainted deltas if the object is to stay
        readable. Readers whose feed view predates the statement keep
        serving only what they verified before it reached them.
        """
        if not writer_id:
            raise CertificateError("writer revocation needs a writer id")
        return cls._issue(
            owner_keys, oid, SCOPE_WRITER, serial, issued_at, reason,
            element=None, cert_version=None, writer=str(writer_id),
        )

    @classmethod
    def _issue(
        cls,
        owner_keys: KeyPair,
        oid: ObjectId,
        scope: str,
        serial: int,
        issued_at: float,
        reason: str,
        element: Optional[str],
        cert_version: Optional[int],
        writer: Optional[str] = None,
    ) -> "RevocationStatement":
        if serial < 1:
            raise CertificateError(f"serial must be positive, got {serial}")
        if not oid.matches_key(owner_keys.public):
            raise AuthenticityError(
                "refusing to issue a revocation the OID cannot self-certify: "
                "signing key does not hash to the stated OID"
            )
        body = {
            "oid": oid.to_dict(),
            "scope": scope,
            "serial": int(serial),
            "issued_at": float(issued_at),
            "reason": reason,
            "issuer_key_der": owner_keys.public.der,
            "element": element,
            "cert_version": cert_version,
            "writer": writer,
        }
        # No not_after: a revocation never expires.
        certificate = Certificate.issue(
            owner_keys,
            REVOCATION_CERT_TYPE,
            body,
            not_before=issued_at,
        )
        return cls(certificate)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def oid(self) -> ObjectId:
        return ObjectId.from_dict(self.certificate.body["oid"])

    @property
    def oid_hex(self) -> str:
        return self.oid.hex

    @property
    def scope(self) -> str:
        return str(self.certificate.body["scope"])

    @property
    def serial(self) -> int:
        return int(self.certificate.body["serial"])

    @property
    def issued_at(self) -> float:
        return float(self.certificate.body["issued_at"])

    @property
    def reason(self) -> str:
        return str(self.certificate.body["reason"])

    @property
    def issuer_key(self) -> PublicKey:
        return PublicKey(der=wire_bytes(self.certificate.body["issuer_key_der"]))

    @property
    def element(self) -> Optional[str]:
        value = self.certificate.body.get("element")
        return None if value is None else str(value)

    @property
    def cert_version(self) -> Optional[int]:
        value = self.certificate.body.get("cert_version")
        return None if value is None else int(value)

    @property
    def writer(self) -> Optional[str]:
        """The condemned writer id (``writer`` scope only).

        ``.get``: statements minted before the multi-writer subsystem
        have no ``writer`` body key at all, and must keep verifying.
        """
        value = self.certificate.body.get("writer")
        return None if value is None else str(value)

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def verify(self, clock=None, cache=None) -> "RevocationStatement":
        """Validate the statement in isolation; returns self.

        Checks, in order: the embedded issuer key self-certifies against
        the stated OID (hash(key) == OID), the
        certificate signature verifies under that key, and the scope
        fields are structurally sound. Raises
        :class:`~repro.errors.AuthenticityError` /
        :class:`~repro.errors.CertificateError` on failure — an invalid
        statement is an attack on the feed, not a revocation.
        """
        oid = self.oid
        issuer_key = self.issuer_key
        if not oid.matches_key(issuer_key):
            raise AuthenticityError(
                f"revocation statement for {oid.hex[:12]}… embeds a key "
                "that does not hash to that OID"
            )
        # Signature check only — never the validity window: a revocation
        # must stay effective forever, so `not_before` is informational
        # and there is no `not_after` to enforce.
        self.certificate.verify(
            issuer_key, clock=None, expected_type=REVOCATION_CERT_TYPE, cache=cache
        )
        scope = self.scope
        if scope not in (SCOPE_KEY, SCOPE_ELEMENT, SCOPE_WRITER):
            raise CertificateError(f"unknown revocation scope {scope!r}")
        if scope == SCOPE_ELEMENT and (self.element is None or self.cert_version is None):
            raise CertificateError(
                "element revocation must name an element and a cert version"
            )
        if scope == SCOPE_WRITER and not self.writer:
            raise CertificateError("writer revocation must name a writer id")
        if self.serial < 1:
            raise CertificateError(f"revocation serial must be positive: {self.serial}")
        return self

    def covers(self, element: Optional[str], cert_version: Optional[int]) -> bool:
        """Does this statement condemn (*element*, *cert_version*)?

        Key-scope statements cover everything under the OID. An
        element-scope statement covers its element for every certificate
        version up to and including the statement's ``cert_version``
        (an unknown version — e.g. from a content-cache hit that kept no
        certificate — is treated as covered: fail closed).
        """
        if self.scope == SCOPE_KEY:
            return True
        if self.scope == SCOPE_WRITER:
            # Writer revocations condemn delta-signing authority, never
            # the owner-signed document content this method guards.
            return False
        if element is None or element != self.element:
            return False
        if cert_version is None:
            return True
        assert self.cert_version is not None
        return cert_version <= self.cert_version

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return self.certificate.to_dict()

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RevocationStatement":
        return cls(Certificate.from_dict(data))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        target = self.oid_hex[:12]
        if self.scope == SCOPE_ELEMENT:
            target += f"/{self.element}@v{self.cert_version}"
        elif self.scope == SCOPE_WRITER:
            target += f"/writer:{self.writer}"
        return f"RevocationStatement({self.scope}, {target}…, serial={self.serial})"
