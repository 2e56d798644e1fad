"""Owner-side tooling (§3): create, sign, update, and package documents.

"Behind each GlobeDoc object there is a person or organization — the
object owner — that is in charge of it. … The object owner uses the
object's private key to sign the object's state before it replicates
it." The owner holds the only copy of the private key; the output of
this module — a :class:`SignedDocument` — contains *no* secrets and is
what gets pushed onto (untrusted) object servers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional

from repro.crypto.identity import CertificateAuthority, IdentityCertificate
from repro.crypto.keys import KeyPair, PublicKey
from repro.errors import ReproError
from repro.globedoc.document import DocumentState
from repro.globedoc.element import PageElement
from repro.globedoc.integrity import IntegrityCertificate
from repro.globedoc.oid import ObjectId
from repro.sim.clock import Clock, RealClock
from repro.util.encoding import wire_bytes

__all__ = ["DocumentOwner", "SignedDocument", "DEFAULT_VALIDITY"]

#: Default element validity interval: one day, matching the paper's
#: 24-hour experiment horizon.
DEFAULT_VALIDITY = 24 * 3600.0


@dataclass(frozen=True)
class SignedDocument:
    """Everything a replica needs, nothing secret: public key, elements,
    integrity certificate, optional identity proofs."""

    oid: ObjectId
    public_key: PublicKey
    elements: Mapping[str, PageElement]
    integrity: IntegrityCertificate
    identity_certs: tuple

    def to_dict(self) -> dict:
        """Wire representation — what the owner ships to object servers."""
        return {
            "oid": self.oid.to_dict(),
            "public_key_der": self.public_key.der,
            "elements": [self.elements[name].to_dict() for name in sorted(self.elements)],
            "integrity": self.integrity.to_dict(),
            "identity_certs": [c.to_dict() for c in self.identity_certs],
        }

    @classmethod
    def from_state(cls, state: DocumentState) -> "SignedDocument":
        """Rebuild a shippable signed document from replica-held state.

        Everything a replica stores is public and owner-signed, so any
        host can repackage it for onward replication — this is what lets
        *peer object servers* (authorised in a target's keystore, §4)
        implement dynamic replication without involving the owner.
        The state is validated first: a tampered replica cannot
        propagate, it can only fail here.
        """
        state.validate()
        from repro.globedoc.integrity import IntegrityCertificate  # re-export guard
        from repro.globedoc.oid import ObjectId

        assert state.integrity is not None  # validate() guarantees it
        return cls(
            oid=ObjectId.from_public_key(state.public_key),
            public_key=state.public_key,
            elements=dict(state.elements),
            integrity=state.integrity,
            identity_certs=tuple(state.identity_certs),
        )

    @classmethod
    def from_dict(cls, data: Mapping) -> "SignedDocument":
        elements = {
            e["name"]: PageElement.from_dict(e) for e in data["elements"]
        }
        return cls(
            oid=ObjectId.from_dict(data["oid"]),
            public_key=PublicKey(der=wire_bytes(data["public_key_der"])),
            elements=elements,
            integrity=IntegrityCertificate.from_dict(data["integrity"]),
            identity_certs=tuple(
                IdentityCertificate.from_dict(c) for c in data.get("identity_certs", [])
            ),
        )

    def state(self) -> DocumentState:
        """Materialise a replica-side document state (validated)."""
        state = DocumentState(
            public_key=self.public_key,
            elements=dict(self.elements),
            integrity=self.integrity,
            identity_certs=list(self.identity_certs),
        )
        state.validate()
        return state

    @property
    def total_size(self) -> int:
        return sum(e.size for e in self.elements.values())

    @property
    def version(self) -> int:
        return self.integrity.version


class DocumentOwner:
    """Holds the object key pair and produces signed document versions.

    Typical lifecycle::

        owner = DocumentOwner("vu.nl/research/report")
        owner.put_element(PageElement("index.html", b"..."))
        signed = owner.publish(validity=3600)        # version 1
        owner.put_element(PageElement("index.html", b"v2"))
        signed2 = owner.publish(validity=3600)       # version 2
    """

    def __init__(
        self,
        name: str,
        keys: Optional[KeyPair] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        if not name:
            raise ReproError("owner/document name must be non-empty")
        self.name = name
        self.keys = keys if keys is not None else KeyPair.generate()
        self.clock = clock if clock is not None else RealClock()
        self.oid = ObjectId.from_public_key(self.keys.public)
        self._elements: Dict[str, PageElement] = {}
        self._identity_certs: List[IdentityCertificate] = []
        self._version = 0

    @property
    def public_key(self) -> PublicKey:
        return self.keys.public

    @property
    def version(self) -> int:
        """Version of the most recent publish (0 before first publish)."""
        return self._version

    # ------------------------------------------------------------------
    # State editing
    # ------------------------------------------------------------------

    def put_element(self, element: PageElement) -> None:
        """Insert or replace a page element in the working state."""
        self._elements[element.name] = element

    def put_elements(self, elements: Iterable[PageElement]) -> None:
        for element in elements:
            self.put_element(element)

    def remove_element(self, name: str) -> None:
        if name not in self._elements:
            raise ReproError(f"no such element: {name!r}")
        del self._elements[name]

    def element_names(self) -> List[str]:
        return sorted(self._elements)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    def request_identity_certificate(
        self,
        ca: CertificateAuthority,
        not_after: Optional[float] = None,
    ) -> IdentityCertificate:
        """Obtain and attach a CA-signed identity proof for this object."""
        cert = ca.certify(
            self.name,
            self.public_key,
            not_before=None,
            not_after=not_after,
        )
        self._identity_certs.append(cert)
        return cert

    # ------------------------------------------------------------------
    # Signing / publishing
    # ------------------------------------------------------------------

    def publish(
        self,
        validity: float = DEFAULT_VALIDITY,
        per_element_expiry: Optional[Mapping[str, float]] = None,
    ) -> SignedDocument:
        """Sign the current working state as a new document version.

        *validity* is the default freshness interval in seconds from now;
        *per_element_expiry* gives absolute per-element expiration
        overrides (name → absolute timestamp).
        """
        if not self._elements:
            raise ReproError("cannot publish a document with no elements")
        if validity <= 0:
            raise ReproError(f"validity must be positive, got {validity}")
        self._version += 1
        now = self.clock.now()
        integrity = IntegrityCertificate.for_elements(
            self.keys,
            self.oid.hex,
            self._elements.values(),
            expires_at=now + validity,
            version=self._version,
            per_element_expiry=per_element_expiry,
            issued_at=now,
        )
        return SignedDocument(
            oid=self.oid,
            public_key=self.public_key,
            elements=dict(self._elements),
            integrity=integrity,
            identity_certs=tuple(self._identity_certs),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DocumentOwner(name={self.name!r}, oid={self.oid.hex[:12]}…, v{self._version})"
