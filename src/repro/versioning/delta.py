"""Signed deltas: the unit of multi-writer document change.

A delta is one writer's atomic batch of element operations (put /
delete), wrapped in a certificate signed with the *writer's* key — not
the object key. The owner never countersigns individual deltas; instead
an owner-signed :class:`~repro.versioning.grant.WriterGrant` authorizes
the writer key once, and every delta carries enough context to be
verified in isolation:

* the target OID (so a genuine delta cannot be replayed into another
  object's DAG — :class:`~repro.errors.DeltaReplayError`);
* the writer id and writer public key (checked against the grant);
* a Lamport timestamp and the set of parent delta ids (the hash links
  that form the version DAG);
* the operations plus a Merkle root over them (reusing
  :mod:`repro.crypto.merkle` for the content-addressed structure).

The **delta id** is the digest of the certificate's canonical signed
payload, which makes the DAG content-addressed: two deltas with the same
id are byte-identical statements, and a parent link commits to the exact
bytes of the ancestor, UStore-style. Deltas carry no expiry — like
revocation statements they are permanent facts; freshness in the
multi-writer world is a property of the *frontier*, not of any delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence, Tuple

from repro.crypto.certificates import Certificate
from repro.crypto.keys import KeyPair, PublicKey
from repro.crypto.merkle import MerkleTree
from repro.errors import CertificateError, DeltaForgeryError, DeltaReplayError
from repro.globedoc.element import validate_element_name
from repro.globedoc.oid import ObjectId
from repro.util.encoding import canonical_bytes, wire_bytes

__all__ = ["DeltaOp", "SignedDelta", "DELTA_CERT_TYPE", "OP_PUT", "OP_DELETE"]

DELTA_CERT_TYPE = "globedoc/delta"

OP_PUT = "put"
OP_DELETE = "delete"


@dataclass(frozen=True)
class DeltaOp:
    """One element operation inside a delta."""

    op: str
    name: str
    content: bytes = b""
    content_type: str = ""

    def __post_init__(self) -> None:
        if self.op not in (OP_PUT, OP_DELETE):
            raise CertificateError(f"unknown delta op {self.op!r}")
        validate_element_name(self.name)
        object.__setattr__(self, "content", bytes(self.content))
        if self.op == OP_DELETE and self.content:
            raise CertificateError("delete op must not carry content")

    def to_dict(self) -> dict:
        return {
            "op": self.op,
            "name": self.name,
            "content": self.content,
            "content_type": self.content_type,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DeltaOp":
        return cls(
            op=str(data["op"]),
            name=str(data["name"]),
            content=wire_bytes(data.get("content", b"")),
            content_type=str(data.get("content_type", "")),
        )

    @property
    def leaf_bytes(self) -> bytes:
        """Canonical encoding, the Merkle leaf for the ops root."""
        return canonical_bytes(self.to_dict())


def ops_merkle_root(ops: Sequence[DeltaOp]) -> bytes:
    """Merkle root over the ops' canonical encodings (content address)."""
    return MerkleTree([op.leaf_bytes for op in ops]).root


@dataclass(frozen=True)
class SignedDelta:
    """A writer-signed, content-addressed batch of element operations."""

    certificate: Certificate

    # ------------------------------------------------------------------
    # Issuing
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        writer_keys: KeyPair,
        oid: ObjectId,
        writer_id: str,
        lamport: int,
        parents: Iterable[str],
        ops: Sequence[DeltaOp],
        issued_at: float,
    ) -> "SignedDelta":
        """Mint and sign one delta under the writer's key."""
        if not writer_id:
            raise CertificateError("delta needs a non-empty writer id")
        if lamport < 1:
            raise CertificateError(f"lamport timestamp must be >= 1, got {lamport}")
        ops = list(ops)
        if not ops:
            raise CertificateError("a delta must carry at least one operation")
        parent_ids = sorted(set(str(p) for p in parents))
        body = {
            "oid": oid.to_dict(),
            "writer_id": str(writer_id),
            "writer_key_der": writer_keys.public.der,
            "lamport": int(lamport),
            "parents": parent_ids,
            "ops": [op.to_dict() for op in ops],
            "ops_root": ops_merkle_root(ops),
            "issued_at": float(issued_at),
        }
        # No validity window: a delta is a permanent fact in the DAG.
        certificate = Certificate.issue(writer_keys, DELTA_CERT_TYPE, body)
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
    def lamport(self) -> int:
        return int(self.certificate.body["lamport"])

    @property
    def parents(self) -> Tuple[str, ...]:
        return tuple(str(p) for p in self.certificate.body["parents"])

    @property
    def ops(self) -> Tuple[DeltaOp, ...]:
        cached = self.__dict__.get("_ops")
        if cached is None:
            cached = tuple(
                DeltaOp.from_dict(data) for data in self.certificate.body["ops"]
            )
            self.__dict__["_ops"] = cached
        return cached

    @property
    def issued_at(self) -> float:
        return float(self.certificate.body["issued_at"])

    @property
    def delta_id(self) -> str:
        """Digest of the canonical signed payload — the content address.

        Memoized: the certificate is frozen, and the envelope already
        memoizes its canonical encoding, so repeated DAG operations pay
        one hash at most.
        """
        cached = self.__dict__.get("_delta_id")
        if cached is None:
            cached = self.certificate.envelope.payload_digest.hex()
            self.__dict__["_delta_id"] = cached
        return cached

    @property
    def order_key(self) -> Tuple[int, str, str]:
        """Total order for the LWW merge: (lamport, writer_id, delta_id).

        Lamport timestamps order causally-related deltas; the writer id
        and content address break concurrent ties deterministically, so
        every replica agrees on the winner without coordination.
        """
        return (self.lamport, self.writer_id, self.delta_id)

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def verify(
        self,
        oid: ObjectId,
        cache=None,
    ) -> "SignedDelta":
        """Validate the delta for *oid*'s DAG; returns self.

        Checks, in order: the signed body names *oid* (else the delta is
        a cross-object replay — :class:`~repro.errors.DeltaReplayError`),
        the certificate signature verifies under the embedded writer key,
        the structure is sound (positive lamport, well-formed parents),
        and the ops Merkle root recomputes from the ops. Everything else
        — whether the writer key is *authorized* — is the grant's job,
        not the delta's.
        """
        try:
            delta_oid = self.oid
        except Exception as exc:
            raise DeltaForgeryError(f"delta body has no parseable OID: {exc}") from exc
        if delta_oid.hex != oid.hex:
            raise DeltaReplayError(
                f"delta {self.delta_id[:12]}… was signed for object "
                f"{delta_oid.hex[:12]}…, not {oid.hex[:12]}… — cross-object replay"
            )
        try:
            writer_key = self.writer_key
            self.certificate.verify(
                writer_key, clock=None, expected_type=DELTA_CERT_TYPE, cache=cache
            )
        except Exception as exc:
            raise DeltaForgeryError(
                f"delta {self.delta_id[:12]}… does not verify under its "
                f"stated writer key: {exc}"
            ) from exc
        try:
            lamport = self.lamport
            parents = self.parents
            ops = self.ops
        except Exception as exc:
            raise DeltaForgeryError(f"delta body is malformed: {exc}") from exc
        if lamport < 1:
            raise DeltaForgeryError(f"delta lamport must be >= 1, got {lamport}")
        if list(parents) != sorted(set(parents)):
            raise DeltaForgeryError("delta parent ids must be sorted and unique")
        if not ops:
            raise DeltaForgeryError("delta carries no operations")
        if ops_merkle_root(ops) != bytes(
            self.certificate.body["ops_root"]
        ):
            raise DeltaForgeryError(
                f"delta {self.delta_id[:12]}… ops root does not recompute "
                "from its operations"
            )
        return self

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """The certificate's payload form, not its signed form (why:
        DESIGN.md §6)."""
        return self.certificate.to_payload_dict()

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SignedDelta":
        return cls(Certificate.from_payload_dict(data))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SignedDelta({self.delta_id[:12]}…, writer={self.writer_id}, "
            f"lamport={self.lamport}, ops={len(self.ops)})"
        )
