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

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.crypto.identity import IdentityCertificate
from repro.crypto.keys import PublicKey
from repro.errors import AuthenticityError, ConsistencyError
from repro.globedoc.document import DocumentState
from repro.globedoc.element import PageElement
from repro.globedoc.integrity import IntegrityCertificate
from repro.net.address import ContactAddress
from repro.net.rpc import BatchCall, RpcClient
from repro.util.encoding import DECODE_ERRORS, wire_bytes

__all__ = ["ReplicaLR", "ProxyLR", "bind_answer"]


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


#: The fields of a ``globedoc.bind`` answer, exactly.
BIND_PARTS = frozenset({"key", "identity_certificates", "certificate", "element"})


def bind_answer(
    key: PublicKey,
    identity_certificates: List[IdentityCertificate],
    integrity: IntegrityCertificate,
    element: Optional[PageElement],
) -> dict:
    """The wire form of a ``globedoc.bind`` answer: the four parts a
    cold access reads from a replica, in one value. ``element`` is None
    when the replica holds no element of the asked name."""
    return {
        "key": key.der,
        "identity_certificates": [c.to_dict() for c in identity_certificates],
        "certificate": integrity.to_dict(),
        "element": element.to_dict() if element is not None else None,
    }


class ProxyLR:
    """A local representative forwarding to a remote replica.

    Used when binding chose not to (or could not) install a full copy:
    every method is an RPC to the replica's contact address. Payloads
    come back as wire dicts and are re-hydrated here; they remain
    *unverified* — the security pipeline operates on top of either LR
    flavour identically. An answer that does not re-hydrate is a
    security violation like any other bad answer (the replica is
    untrusted): it raises :class:`~repro.errors.AuthenticityError`, so
    the session fails over and the proxy renders its 403 page.

    A cold access reads four parts — key, identity certificates,
    integrity certificate, element — and the LR serves each read on its
    own. With ``fig3_walk`` each read is its own call (Fig. 3's message
    sequence, sent only when read); otherwise a key read that names the
    element being bound sends one ``globedoc.bind`` and parks the other
    parts of its answer, undecoded, for the reads that follow.
    """

    def __init__(
        self, client: RpcClient, address: ContactAddress, fig3_walk: bool = False
    ) -> None:
        self.client = client
        self.address = address
        self.fig3_walk = fig3_walk
        #: method -> (its args, its part of the last ``bind`` answer),
        #: each handed out at most once.
        self._parked: Dict[str, Tuple[dict, Any]] = {}

    def pending_call(self, method: str, **args: Any) -> BatchCall:
        """The call this LR sends for its *method* — the one place a
        replica call is built, so a prefetch of it is the call the LR
        makes."""
        return BatchCall(
            self.address,
            f"globedoc.{method}",
            dict(args, replica_id=self.address.replica_id),
        )

    def fetch_calls(
        self, names: Sequence[str], establish: bool, identity: bool
    ) -> List[BatchCall]:
        """The calls a session sends to fetch *names*, in order, through
        this LR — establishing the binding first when *establish*, with
        the identity certificates when *identity*."""
        names = list(names)
        calls: List[BatchCall] = []
        if names and establish:
            if self.fig3_walk:
                calls.append(self.pending_call("get_public_key"))
                if identity:
                    calls.append(self.pending_call("get_identity_certificates"))
                calls.append(self.pending_call("get_integrity_certificate"))
            else:
                calls.append(self.pending_call("bind", name=names.pop(0)))
        calls.extend(self.pending_call("get_element", name=name) for name in names)
        return calls

    def _call(self, method: str, **args: Any) -> Any:
        call = self.pending_call(method, **args)
        return self.client.call(call.target, call.op, **call.args)

    def _answer(self, method: str, **args: Any) -> Tuple[str, Any]:
        """(the op that carried it, the raw answer) for *method*: its
        part of the last ``bind`` answer if one is parked for these
        *args*, else a call of its own."""
        parked = self._parked.pop(method, None)
        if parked is not None and parked[0] == args:
            return "bind", parked[1]
        return method, self._call(method, **args)

    def _bind(self, name: str) -> Any:
        """One ``globedoc.bind`` for *name*: park every part but the
        key, and return the key's raw answer."""
        answer = self._call("bind", name=name)
        if not isinstance(answer, dict) or set(answer) != BIND_PARTS:
            raise _malformed("bind", ValueError(f"not a mapping of {sorted(BIND_PARTS)}"))
        self._parked = {
            "get_identity_certificates": ({}, answer["identity_certificates"]),
            "get_integrity_certificate": ({}, answer["certificate"]),
        }
        if answer["element"] is not None:
            # A replica without the element says so; the walk's own call
            # then asks again, and its refusal reaches the session as is.
            self._parked["get_element"] = ({"name": name}, answer["element"])
        return answer["key"]

    def get_public_key(self, name: Optional[str] = None) -> PublicKey:
        """The replica's object key. *name*, the element the binding is
        established to serve, makes a bundled LR bring everything else
        the access reads in the same exchange."""
        self._parked = {}
        if name is None or self.fig3_walk:
            op, der = "get_public_key", self._call("get_public_key")
        else:
            op, der = "bind", self._bind(name)
        try:
            return PublicKey(der=wire_bytes(der))
        except DECODE_ERRORS as exc:
            raise _malformed(op, exc) from exc

    def get_identity_certificates(self) -> List[IdentityCertificate]:
        op, raw = self._answer("get_identity_certificates")
        try:
            return [IdentityCertificate.from_dict(c) for c in raw]
        except DECODE_ERRORS as exc:
            raise _malformed(op, exc) from exc

    def get_integrity_certificate(self) -> IntegrityCertificate:
        op, raw = self._answer("get_integrity_certificate")
        try:
            return IntegrityCertificate.from_dict(raw)
        except DECODE_ERRORS as exc:
            raise _malformed(op, exc) from exc

    def get_element(self, name: str) -> PageElement:
        op, raw = self._answer("get_element", name=name)
        try:
            return PageElement.from_dict(raw)
        except DECODE_ERRORS as exc:
            raise _malformed(op, exc) from exc

    def parked_binding(
        self, peek: Callable[[BatchCall], Any], name: str
    ) -> Optional[Tuple[PublicKey, IntegrityCertificate]]:
        """The key and certificate a prefetch parked for establishing a
        binding for *name* (*peek* reads a parked answer without taking
        it), decoded but unverified; None when either is not parked."""
        if self.fig3_walk:
            der = peek(self.pending_call("get_public_key"))
            raw = peek(self.pending_call("get_integrity_certificate"))
        else:
            answer = peek(self.pending_call("bind", name=name))
            der, raw = (
                (answer.get("key"), answer.get("certificate"))
                if isinstance(answer, dict)
                else (None, None)
            )
        if der is None or raw is None:
            return None
        return PublicKey(der=wire_bytes(der)), IntegrityCertificate.from_dict(raw)
