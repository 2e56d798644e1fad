"""Local representatives (§2.1).

Binding to a GlobeDoc installs a *local representative* in the binding
process. It is either a **full replica** holding a copy of the object
state (:class:`ReplicaLR`) or a lightweight **forwarding proxy**
(:class:`ProxyLR`) that relays method invocations to a remote replica.
Both implement :class:`~repro.globedoc.document.GlobeDocInterface`, so
the client proxy is oblivious to which one it got — Globe's replication
transparency.
"""

from __future__ import annotations

from typing import Any, List

from repro.crypto.identity import IdentityCertificate
from repro.crypto.keys import PublicKey
from repro.errors import AuthenticityError, ConsistencyError
from repro.globedoc.document import DocumentState
from repro.globedoc.element import PageElement
from repro.globedoc.integrity import IntegrityCertificate
from repro.net.address import ContactAddress
from repro.net.rpc import BatchCall, RpcClient
from repro.util.encoding import DECODE_ERRORS, wire_bytes

__all__ = ["ReplicaLR", "ProxyLR"]


def _malformed(op: str, exc: Exception) -> AuthenticityError:
    return AuthenticityError(f"replica returned a malformed {op} answer: {exc}")


class ReplicaLR:
    """A stateful local representative: a full copy of the object state.

    This is what object servers host. Note the *server* never verifies
    anything — it simply stores and serves; verification is entirely the
    client proxy's job (the server is untrusted).
    """

    def __init__(self, state: DocumentState) -> None:
        self.state = state
        self.serve_count = 0

    # -- GlobeDocInterface -------------------------------------------------

    def get_public_key(self) -> PublicKey:
        return self.state.public_key

    def get_identity_certificates(self) -> List[IdentityCertificate]:
        return list(self.state.identity_certs)

    def get_integrity_certificate(self) -> IntegrityCertificate:
        if self.state.integrity is None:
            raise ConsistencyError("replica holds no integrity certificate")
        return self.state.integrity

    def get_element(self, name: str) -> PageElement:
        element = self.state.element(name)
        self.serve_count += 1
        return element

    # -- State updates (owner/coordinator push) ----------------------------

    def update_state(self, state: DocumentState) -> None:
        """Replace the replica state (owner pushed a new version)."""
        self.state = state

    @property
    def version(self) -> int:
        return self.state.integrity.version if self.state.integrity else 0


class ProxyLR:
    """A stateless local representative forwarding to a remote replica.

    Used when binding chose not to (or could not) install a full copy:
    every method is an RPC to the replica's contact address. Payloads
    come back as wire dicts and are re-hydrated here; they remain
    *unverified* — the security pipeline operates on top of either LR
    flavour identically. An answer that does not re-hydrate is a
    security violation like any other bad answer (the replica is
    untrusted): it raises :class:`~repro.errors.AuthenticityError`, so
    the session fails over and the proxy renders its 403 page.
    """

    def __init__(self, client: RpcClient, address: ContactAddress) -> None:
        self.client = client
        self.address = address

    @staticmethod
    def pending_call(address: ContactAddress, method: str, **args: Any) -> BatchCall:
        """The call the LR at *address* sends for its *method* — the one
        place a replica call is built, so a prefetch of it is the call
        the LR makes."""
        return BatchCall(
            address, f"globedoc.{method}", dict(args, replica_id=address.replica_id)
        )

    def _call(self, method: str, **args: Any) -> Any:
        call = self.pending_call(self.address, method, **args)
        return self.client.call(call.target, call.op, **call.args)

    def get_public_key(self) -> PublicKey:
        der = self._call("get_public_key")
        try:
            return PublicKey(der=wire_bytes(der))
        except DECODE_ERRORS as exc:
            raise _malformed("get_public_key", exc) from exc

    def get_identity_certificates(self) -> List[IdentityCertificate]:
        raw = self._call("get_identity_certificates")
        try:
            return [IdentityCertificate.from_dict(c) for c in raw]
        except DECODE_ERRORS as exc:
            raise _malformed("get_identity_certificates", exc) from exc

    def get_integrity_certificate(self) -> IntegrityCertificate:
        raw = self._call("get_integrity_certificate")
        try:
            return IntegrityCertificate.from_dict(raw)
        except DECODE_ERRORS as exc:
            raise _malformed("get_integrity_certificate", exc) from exc

    def get_element(self, name: str) -> PageElement:
        raw = self._call("get_element", name=name)
        try:
            return PageElement.from_dict(raw)
        except DECODE_ERRORS as exc:
            raise _malformed("get_element", exc) from exc
