"""Frontier certificates: the DAG-aware integrity certificate.

The one-writer design's integrity certificate pins a single version
counter; with multiple writers there is no single counter — there is a
**causal frontier** (the set of verified head delta ids) and the merged
state it determines. A frontier certificate signs, under a granted
writer key (or the owner key itself):

* the sorted head ids (committing, via hash links, to the whole DAG),
* the merged state digest those heads must merge to,
* the maximum Lamport timestamp (monotonicity diagnostics).

A replica serves its current frontier certificate alongside the deltas;
the client's eighth check verifies the signature, re-merges the verified
deltas, and requires both heads and state digest to match — a replica
cannot claim a frontier its served DAG does not produce. Note what the
certificate is *not*: proof of completeness. Withholding detection comes
from the client's own known frontier (it never trusts the server's word
for what it has seen before).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.crypto.certificates import Certificate
from repro.crypto.keys import KeyPair, PublicKey
from repro.errors import CertificateError, DeltaForgeryError
from repro.globedoc.oid import ObjectId
from repro.util.encoding import wire_bytes
from repro.versioning.dag import Frontier

__all__ = ["FrontierCertificate", "FRONTIER_CERT_TYPE"]

FRONTIER_CERT_TYPE = "globedoc/frontier"


@dataclass(frozen=True)
class FrontierCertificate:
    """A signed claim: these heads merge to this state digest."""

    certificate: Certificate

    @classmethod
    def build(
        cls,
        signer_keys: KeyPair,
        oid: ObjectId,
        heads: Iterable[str],
        digest: bytes,
        lamport: int,
        issued_at: float,
        signer_id: str = "",
    ) -> "FrontierCertificate":
        """Sign a frontier claim (writer tooling / server republish)."""
        head_ids = sorted(set(str(h) for h in heads))
        if not head_ids:
            raise CertificateError("a frontier certificate needs at least one head")
        body = {
            "oid": oid.to_dict(),
            "heads": head_ids,
            "state_digest": bytes(digest),
            "lamport": int(lamport),
            "signer_id": str(signer_id),
            "signer_key_der": signer_keys.public.der,
            "issued_at": float(issued_at),
        }
        certificate = Certificate.issue(
            signer_keys, FRONTIER_CERT_TYPE, body
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
    def frontier(self) -> Frontier:
        return Frontier.from_list(self.certificate.body["heads"])

    @property
    def state_digest(self) -> bytes:
        return bytes(self.certificate.body["state_digest"])

    @property
    def lamport(self) -> int:
        return int(self.certificate.body["lamport"])

    @property
    def signer_id(self) -> str:
        return str(self.certificate.body.get("signer_id", ""))

    @property
    def signer_key(self) -> PublicKey:
        return PublicKey(der=wire_bytes(self.certificate.body["signer_key_der"]))

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def verify(self, oid: ObjectId, cache=None) -> "FrontierCertificate":
        """Signature + structure + OID binding; returns self.

        Verifies under the *embedded* signer key only — whether that key
        is the object key or a granted, unrevoked writer key is the
        frontier check's decision (it holds the grants; this module does
        not). A certificate that fails here is a forgery:
        :class:`~repro.errors.DeltaForgeryError`.
        """
        try:
            cert_oid = self.oid
        except Exception as exc:
            raise DeltaForgeryError(
                f"frontier certificate has no parseable OID: {exc}"
            ) from exc
        if cert_oid.hex != oid.hex:
            raise DeltaForgeryError(
                f"frontier certificate was issued for object "
                f"{cert_oid.hex[:12]}…, not {oid.hex[:12]}…"
            )
        try:
            self.certificate.verify(
                self.signer_key,
                clock=None,
                expected_type=FRONTIER_CERT_TYPE,
                cache=cache,
            )
        except Exception as exc:
            raise DeltaForgeryError(
                f"frontier certificate does not verify under its stated "
                f"signer key: {exc}"
            ) from exc
        if not self.frontier.heads:
            raise DeltaForgeryError("frontier certificate names no heads")
        return self

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return self.certificate.to_dict()

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FrontierCertificate":
        return cls(Certificate.from_dict(data))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FrontierCertificate({self.oid_hex[:12]}…, "
            f"{len(self.frontier.heads)} heads, lamport={self.lamport})"
        )
