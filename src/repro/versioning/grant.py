"""Writer grants: owner-signed write authority over one object.

The paper's trust model has exactly one signing authority per object —
the key the OID self-certifies. Multi-writer documents keep that root of
trust: the owner signs, with the *object key*, a grant binding a writer
id to a writer public key for this OID. A delta is then trustworthy iff
its certificate verifies under a writer key that some verified grant
names — the grant chain replaces per-delta owner countersignatures.

Grants are revocable through the existing revocation feed: a
``writer``-scope :class:`~repro.revocation.statement.RevocationStatement`
names the writer id, and the frontier check then fails closed on any
served state containing that writer's deltas — past or future
(:class:`~repro.errors.RevokedWriterError`). Revocation is retroactive
by design; see
:meth:`~repro.revocation.statement.RevocationStatement.revoke_writer`.

Grants also accumulate: the owner may re-key a writer by issuing a new
grant binding the same writer id to a new key. Earlier grants stay
valid for the deltas published under them — verifiers accept a delta
covered by *any* verified grant for its writer id — so a re-key never
orphans history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.crypto import hashes
from repro.crypto.certificates import Certificate
from repro.crypto.keys import KeyPair, PublicKey
from repro.errors import AuthenticityError, CertificateError, UnauthorizedWriterError
from repro.globedoc.oid import ObjectId
from repro.util.encoding import wire_bytes

__all__ = ["WriterGrant", "WRITER_GRANT_CERT_TYPE"]

WRITER_GRANT_CERT_TYPE = "globedoc/writer-grant"


@dataclass(frozen=True)
class WriterGrant:
    """An owner-signed statement: *writer_key* may write to *oid*."""

    certificate: Certificate

    # ------------------------------------------------------------------
    # Issuing
    # ------------------------------------------------------------------

    @classmethod
    def issue(
        cls,
        owner_keys: KeyPair,
        oid: ObjectId,
        writer_id: str,
        writer_key: PublicKey,
        granted_at: float,
        not_after: Optional[float] = None,
    ) -> "WriterGrant":
        """Sign a grant with the object key (must self-certify *oid*)."""
        if not writer_id:
            raise CertificateError("writer grant needs a non-empty writer id")
        if not oid.matches_key(owner_keys.public):
            raise AuthenticityError(
                "refusing to issue a writer grant the OID cannot self-certify: "
                "signing key does not hash to the stated OID"
            )
        body = {
            "oid": oid.to_dict(),
            "writer_id": str(writer_id),
            "writer_key_der": writer_key.der,
            "granted_at": float(granted_at),
        }
        certificate = Certificate.issue(
            owner_keys,
            WRITER_GRANT_CERT_TYPE,
            body,
            not_before=granted_at,
            not_after=not_after,
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
    def writer_id(self) -> str:
        return str(self.certificate.body["writer_id"])

    @property
    def writer_key(self) -> PublicKey:
        return PublicKey(der=wire_bytes(self.certificate.body["writer_key_der"]))

    @property
    def granted_at(self) -> float:
        return float(self.certificate.body["granted_at"])

    @property
    def grant_id(self) -> str:
        """Digest of the payload digest and the signature — the content
        address of the whole grant. A bound reader names the grants it
        holds by it.

        Unlike :attr:`~repro.versioning.delta.SignedDelta.delta_id` it
        covers the signature: a reader holds grants that did not verify
        too, so a copy of a genuine payload under a forged signature
        must not share the genuine grant's id. The payload digest has a
        fixed size, so the concatenation is unambiguous. Memoized as
        ``delta_id`` is.
        """
        cached = self.__dict__.get("_grant_id")
        if cached is None:
            envelope = self.certificate.envelope
            cached = hashes.hexdigest(envelope.payload_digest, envelope.signature)
            self.__dict__["_grant_id"] = cached
        return cached

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def verify(
        self,
        object_key: PublicKey,
        oid: ObjectId,
        clock=None,
        cache=None,
    ) -> "WriterGrant":
        """Validate the grant for *oid* under *object_key*; returns self.

        The object key is expected to have already passed the
        self-certification check (``check_public_key``), but the grant
        re-checks it — a grant verified against an unproven key would be
        an authority bypass. Any failure is
        :class:`~repro.errors.UnauthorizedWriterError`: a grant that does
        not check out confers no authority.
        """
        if not oid.matches_key(object_key):
            raise UnauthorizedWriterError(
                "writer grant checked against a key that does not hash to "
                f"OID {oid.hex[:12]}…"
            )
        try:
            grant_oid = self.oid
        except Exception as exc:
            raise UnauthorizedWriterError(
                f"writer grant body has no parseable OID: {exc}"
            ) from exc
        if grant_oid.hex != oid.hex:
            raise UnauthorizedWriterError(
                f"writer grant for {self.writer_id!r} was issued for object "
                f"{grant_oid.hex[:12]}…, not {oid.hex[:12]}… — grant replay"
            )
        try:
            self.certificate.verify(
                object_key,
                clock=clock,
                expected_type=WRITER_GRANT_CERT_TYPE,
                cache=cache,
            )
        except Exception as exc:
            raise UnauthorizedWriterError(
                f"writer grant for {self.writer_id!r} on OID {oid.hex[:12]}… "
                f"is not signed by the object owner: {exc}"
            ) from exc
        if not self.writer_id:
            raise UnauthorizedWriterError("writer grant names an empty writer id")
        return self

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return self.certificate.to_dict()

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WriterGrant":
        return cls(Certificate.from_dict(data))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WriterGrant({self.writer_id!r} on {self.oid_hex[:12]}…)"
