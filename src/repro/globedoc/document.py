"""Document state and the GlobeDoc method interface.

``DocumentState`` is the replicable state of one GlobeDoc: its page
elements plus the current integrity certificate, versioned. The
``GlobeDocInterface`` protocol is what both kinds of local
representative (full replica and forwarding proxy, §2.1) implement, so
client code is oblivious to where the state lives — Globe's core
transparency property.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Protocol, runtime_checkable

from repro.crypto.identity import IdentityCertificate
from repro.crypto.keys import PublicKey
from repro.errors import ConsistencyError, ReproError
from repro.globedoc.element import PageElement
from repro.globedoc.integrity import IntegrityCertificate

__all__ = ["DocumentState", "GlobeDocInterface"]


@dataclass
class DocumentState:
    """The replicated state of a GlobeDoc object.

    Invariant (checked by :meth:`validate`): the set of element names
    equals the set of names in the integrity certificate, and each
    element's content hashes to its certificate entry. Owner tooling
    maintains it; the attack suite deliberately violates it server-side
    to show clients detect the violation.
    """

    public_key: PublicKey
    elements: Dict[str, PageElement] = field(default_factory=dict)
    integrity: Optional[IntegrityCertificate] = None
    identity_certs: List[IdentityCertificate] = field(default_factory=list)

    def add_element(self, element: PageElement) -> None:
        """Insert or replace an element (invalidates any existing cert)."""
        self.elements[element.name] = element

    def remove_element(self, name: str) -> None:
        if name not in self.elements:
            raise ReproError(f"no such element: {name!r}")
        del self.elements[name]

    def element(self, name: str) -> PageElement:
        elem = self.elements.get(name)
        if elem is None:
            raise ConsistencyError(f"element {name!r} not in document state")
        return elem

    @property
    def element_names(self) -> List[str]:
        return sorted(self.elements)

    @property
    def total_size(self) -> int:
        """Sum of element content sizes (the paper's object sizes)."""
        return sum(e.size for e in self.elements.values())

    def validate(self) -> None:
        """Check the state/certificate invariant; raise ReproError if broken."""
        if self.integrity is None:
            raise ReproError("document state has no integrity certificate")
        entries = self.integrity.entries
        if set(entries) != set(self.elements):
            raise ReproError(
                "element set differs from certificate entries: "
                f"state={sorted(self.elements)} cert={sorted(entries)}"
            )
        for name, element in self.elements.items():
            if element.content_hash() != entries[name].content_hash:
                raise ReproError(f"element {name!r} does not match its certificate hash")

    def copy(self) -> "DocumentState":
        """Shallow-ish copy used when installing a replica."""
        return DocumentState(
            public_key=self.public_key,
            elements=dict(self.elements),
            integrity=self.integrity,
            identity_certs=list(self.identity_certs),
        )


@runtime_checkable
class GlobeDocInterface(Protocol):
    """Methods a local representative exposes to the client proxy.

    Mirrors Fig. 3's per-binding interactions: fetch the object public
    key (step 4), identity proofs (step 6), the integrity certificate
    (step 8), and page elements (step 10). All return untrusted data —
    the proxy performs every verification itself.
    """

    def get_public_key(self) -> PublicKey:
        """The object's public key as stored at this replica."""
        ...

    def get_identity_certificates(self) -> List[IdentityCertificate]:
        """Identity proofs available at this replica (may be empty)."""
        ...

    def get_integrity_certificate(self) -> IntegrityCertificate:
        """The replica's copy of the integrity certificate."""
        ...

    def get_element(self, name: str) -> PageElement:
        """Retrieve one page element by name."""
        ...
