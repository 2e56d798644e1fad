"""Owner tooling for emergency re-keying.

When an object key is compromised, expiry-based containment (§3.2) is
too slow and revocation alone leaves the object dead: the OID *is* the
hash of the compromised key. Recovery therefore has three signed
artifacts, produced together by :func:`emergency_rekey`:

1. a **successor object** — fresh key pair, hence fresh OID, carrying
   the same name and elements, re-certified from scratch under the new
   key (a brand-new integrity certificate; nothing signed by the old
   key is reused);
2. a **key-scope revocation statement** for the old OID, signed with the
   old key (the last legitimate use of it), published through the
   revocation feed;
3. a **forwarding record** ``old OID → new OID``, also signed with the
   old key, published through the naming service so absolute hybrid
   URLs minted before the compromise keep resolving.

Identity certificates are deliberately *not* carried over: they bind the
object name to the compromised key, so the owner must request fresh
proofs from the CA for the successor key.

Deployment (replica placement, naming re-bind, feed publication) is the
caller's business — this module only mints the artifacts, so it needs no
network and can run from an offline owner workstation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.crypto.keys import KeyPair
from repro.errors import ReproError
from repro.globedoc.oid import ObjectId
from repro.globedoc.owner import DEFAULT_VALIDITY, DocumentOwner, SignedDocument
from repro.naming.forwarding import ForwardingRecord
from repro.revocation.statement import RevocationStatement

__all__ = ["RekeyResult", "emergency_rekey"]


@dataclass(frozen=True)
class RekeyResult:
    """Everything an emergency re-key produces, ready to deploy."""

    old_oid: ObjectId
    successor: DocumentOwner
    document: SignedDocument
    revocation: RevocationStatement
    forwarding: ForwardingRecord

    @property
    def new_oid(self) -> ObjectId:
        return self.successor.oid


def emergency_rekey(
    owner: DocumentOwner,
    serial: int,
    reason: str = "key compromise",
    validity: float = DEFAULT_VALIDITY,
    new_keys: Optional[KeyPair] = None,
) -> RekeyResult:
    """Re-key *owner*'s object; returns the successor plus the signed
    revocation and forwarding artifacts.

    *serial* is the revocation serial for the old OID (monotone per OID;
    the owner's bookkeeping, enforced again by the feed). *new_keys*
    lets tests pass fast keys; production callers omit it for a fresh
    full-strength pair.
    """
    if not owner.element_names():
        raise ReproError("cannot re-key an object with no elements")
    successor = DocumentOwner(
        owner.name,
        keys=new_keys if new_keys is not None else KeyPair.generate(),
        clock=owner.clock,
    )
    if successor.oid.hex == owner.oid.hex:
        raise ReproError("re-key produced the same key pair; refusing")
    successor.put_elements(owner.staged_elements())
    document = successor.publish(validity=validity)

    now = owner.clock.now()
    revocation = RevocationStatement.revoke_key(
        owner.keys, owner.oid, serial=serial, issued_at=now, reason=reason,
    )
    forwarding = ForwardingRecord.issue(
        owner.keys, owner.oid, successor.oid, issued_at=now
    )
    return RekeyResult(
        old_oid=owner.oid,
        successor=successor,
        document=document,
        revocation=revocation,
        forwarding=forwarding,
    )
