"""Malicious replicas.

A :class:`MaliciousReplica` serves a GlobeDoc object like an honest
replica but applies a *behaviour* to its responses. Behaviours map to
the three properties of §3.2.1:

* :class:`TamperBehavior` — violates **authenticity**: modified bytes.
* :class:`StaleReplayBehavior` — violates **freshness**: a genuine but
  superseded version, complete with its (genuinely signed!) old
  certificate.
* :class:`ElementSwapBehavior` — violates **consistency**: a genuine,
  fresh element of the *same* object, different from the one requested.
* :class:`ImpostorBehavior` — not part of the object at all: serves a
  different object's key/state (what a lying location service or
  content-masquerading host would deliver).

None of these can forge the owner's signature — that is the point: the
only attack surface is serving the wrong (bytes, version, element,
object), and each is caught by a specific check.
"""

from __future__ import annotations

from typing import Protocol

from repro.crypto.keys import PublicKey
from repro.errors import ConsistencyError
from repro.globedoc.document import DocumentState
from repro.globedoc.element import PageElement
from repro.globedoc.integrity import IntegrityCertificate
from repro.net.address import Endpoint
from repro.net.rpc import RpcServer, rpc_method
from repro.globedoc.owner import SignedDocument

__all__ = [
    "ReplicaBehavior",
    "HonestBehavior",
    "TamperBehavior",
    "StaleReplayBehavior",
    "ElementSwapBehavior",
    "ImpostorBehavior",
    "MaliciousReplica",
]


class ReplicaBehavior(Protocol):
    """Hooks a malicious replica applies to each response."""

    def public_key(self, state: DocumentState) -> PublicKey: ...

    def integrity(self, state: DocumentState) -> IntegrityCertificate: ...

    def element(self, state: DocumentState, name: str) -> PageElement: ...


class HonestBehavior:
    """The identity behaviour — useful as a control in tests."""

    def public_key(self, state: DocumentState) -> PublicKey:
        return state.public_key

    def integrity(self, state: DocumentState) -> IntegrityCertificate:
        assert state.integrity is not None
        return state.integrity

    def element(self, state: DocumentState, name: str) -> PageElement:
        return state.element(name)


class TamperBehavior(HonestBehavior):
    """Serve modified content for selected elements (content masquerade).

    The classic CDN attack: the host injects its own payload (ads,
    malware, defacement) into the documents it replicates.
    """

    def __init__(self, target: str, payload: bytes = b"<!-- pwned -->") -> None:
        self.target = target
        self.payload = payload

    def element(self, state: DocumentState, name: str) -> PageElement:
        element = state.element(name)
        if name == self.target:
            return element.with_content(element.content + self.payload)
        return element


class StaleReplayBehavior(HonestBehavior):
    """Serve an old, genuinely signed version of the whole object.

    Both the old elements *and* the old integrity certificate are
    served, so every signature verifies — only the validity interval
    betrays the replay.
    """

    def __init__(self, stale: SignedDocument) -> None:
        self._stale_state = stale.state()

    def integrity(self, state: DocumentState) -> IntegrityCertificate:
        assert self._stale_state.integrity is not None
        return self._stale_state.integrity

    def element(self, state: DocumentState, name: str) -> PageElement:
        return self._stale_state.element(name)


class ElementSwapBehavior(HonestBehavior):
    """Answer a request for one element with another genuine element.

    E.g. swap a news story for a retraction page — both authentic, both
    fresh, but not what the client asked for (§3.2.1 "Consistency").
    """

    def __init__(self, when_asked_for: str, serve_instead: str) -> None:
        self.when_asked_for = when_asked_for
        self.serve_instead = serve_instead

    def element(self, state: DocumentState, name: str) -> PageElement:
        if name == self.when_asked_for:
            return state.element(self.serve_instead)
        return state.element(name)


class ElementSwapRenamedBehavior(ElementSwapBehavior):
    """A smarter swap: relabel the substituted element with the
    requested name, defeating the *name* check so only the hash check
    can catch it. Used to prove the checks are independently load-
    bearing."""

    def element(self, state: DocumentState, name: str) -> PageElement:
        if name == self.when_asked_for:
            substitute = state.element(self.serve_instead)
            return PageElement(
                name=name,
                content=substitute.content,
                content_type=substitute.content_type,
            )
        return state.element(name)


class ImpostorBehavior:
    """Serve an entirely different object (content masquerading via a
    lying directory): different key, different state."""

    def __init__(self, impostor: SignedDocument) -> None:
        self._state = impostor.state()

    def public_key(self, state: DocumentState) -> PublicKey:
        return self._state.public_key

    def integrity(self, state: DocumentState) -> IntegrityCertificate:
        assert self._state.integrity is not None
        return self._state.integrity

    def element(self, state: DocumentState, name: str) -> PageElement:
        try:
            return self._state.element(name)
        except ConsistencyError:
            # Serve *something* plausible for unknown names.
            first = self._state.element_names[0]
            return self._state.element(first)


class MaliciousReplica:
    """An object-server-shaped host applying a behaviour to one object.

    Speaks the same ``globedoc.*`` RPC surface as a real
    :class:`~repro.server.objectserver.ObjectServer`, so proxies cannot
    tell it apart by protocol — only by the security checks.
    """

    def __init__(
        self,
        host: str,
        document: SignedDocument,
        behavior: ReplicaBehavior,
        service: str = "objectserver",
        replica_id: str = "evil",
    ) -> None:
        self.host = host
        self.service = service
        self.replica_id = replica_id
        self.state = document.state()
        self.behavior = behavior
        self.requests_served = 0

    @property
    def endpoint(self) -> Endpoint:
        return Endpoint(host=self.host, service=self.service)

    def contact_address(self):
        from repro.net.address import ContactAddress

        return ContactAddress(
            endpoint=self.endpoint,
            protocol="globedoc/replica",
            replica_id=self.replica_id,
        )

    @rpc_method("globedoc.get_public_key")
    def rpc_get_public_key(self, replica_id: str) -> bytes:
        self.requests_served += 1
        return self.behavior.public_key(self.state).der

    @rpc_method("globedoc.get_identity_certificates")
    def rpc_get_identity_certificates(self, replica_id: str) -> list:
        return [c.to_dict() for c in self.state.identity_certs]

    @rpc_method("globedoc.get_integrity_certificate")
    def rpc_get_integrity_certificate(self, replica_id: str) -> dict:
        self.requests_served += 1
        return self.behavior.integrity(self.state).to_dict()

    @rpc_method("globedoc.get_element")
    def rpc_get_element(self, replica_id: str, name: str) -> dict:
        self.requests_served += 1
        return self.behavior.element(self.state, name).to_dict()

    def rpc_server(self) -> RpcServer:
        server = RpcServer(name=f"malicious@{self.host}")
        server.register_object(self)
        return server
