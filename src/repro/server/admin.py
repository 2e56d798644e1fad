"""Authenticated admin commands for the object server.

The paper secures its command interface with TLS plus a keystore of
client public keys. We model the same trust relationship with *signed
commands*: the requester signs ``(op, args_digest, issued_at, nonce,
requester key)`` with its private key; the server checks the key against
the keystore, the signature, a freshness window, and a nonce replay set.
This gives the property the experiments need — only keystore entities
can create replicas, and each entity manages only its own replicas —
without modelling the full TLS handshake (the TLS cost model lives with
the SSL baseline, where it is actually measured).

``args_digest`` is the :data:`~repro.crypto.hashes.SUITE` digest of the
args' frame (:func:`~repro.util.encoding.to_wire`), the encoding that
carries a document's element bytes raw: signing a 2 MiB replica frames
and hashes its bytes once instead of base64-encoding, escaping and
hashing them as 2.8 MB of JSON text. The server re-frames the args it
decoded — the very value it then acts on — and checks the signature
against that digest, so every argument byte is signed; what an honest
frame decodes to frames again to the same bytes, so an honest command
always verifies. Args that decode but do not frame again (a forged
header's ``1e400`` decodes to ``inf``) are denied. There is no second,
undigested form (DESIGN.md, beside the S8 row).
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Tuple

from repro.crypto import hashes
from repro.crypto.keys import KeyPair, PublicKey
from repro.crypto.signing import sign_payload, verify_payload
from repro.errors import AccessDenied, EncodingError, SignatureError
from repro.net.rpc import RpcClient
from repro.server.keystore import Keystore
from repro.sim.clock import Clock
from repro.util.encoding import to_wire, wire_bytes

__all__ = ["AdminCommand", "AdminVerifier", "AdminClient", "FRESHNESS_WINDOW"]

#: Commands older than this (or this far in the future) are rejected.
FRESHNESS_WINDOW = 300.0


@dataclass(frozen=True)
class AdminCommand:
    """A signed admin request."""

    op: str
    args: Mapping[str, Any]
    issued_at: float
    nonce: str
    requester_key_der: bytes
    signature: bytes

    @staticmethod
    def _payload(
        op: str, args: Mapping[str, Any], issued_at: float, nonce: str, key_der: bytes
    ) -> dict:
        return {
            "op": op,
            "args_digest": hashes.digest(to_wire(dict(args))),
            "issued_at": issued_at,
            "nonce": nonce,
            "requester_key_der": key_der,
        }

    @classmethod
    def create(
        cls,
        signer: KeyPair,
        op: str,
        args: Mapping[str, Any],
        clock: Clock,
    ) -> "AdminCommand":
        issued_at = clock.now()
        nonce = secrets.token_hex(16)
        payload = cls._payload(op, args, issued_at, nonce, signer.public.der)
        return cls(
            op=op,
            args=dict(args),
            issued_at=issued_at,
            nonce=nonce,
            requester_key_der=signer.public.der,
            signature=sign_payload(signer, payload),
        )

    def to_dict(self) -> dict:
        return {
            "op": self.op,
            "args": dict(self.args),
            "issued_at": self.issued_at,
            "nonce": self.nonce,
            "requester_key_der": self.requester_key_der,
            "signature": self.signature,
            "suite": hashes.SUITE.name,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AdminCommand":
        """Decode an unauthenticated command: it runs before any keystore
        or signature check, so bytes fields go through ``wire_bytes`` and
        a ``"suite"`` tag other than ``SUITE.name`` is malformed."""
        try:
            if data["suite"] != hashes.SUITE.name:
                raise ValueError(f"hash suite is not {hashes.SUITE.name}")
            return cls(
                op=str(data["op"]),
                args=dict(data["args"]),
                issued_at=float(data["issued_at"]),
                nonce=str(data["nonce"]),
                requester_key_der=wire_bytes(data["requester_key_der"]),
                signature=wire_bytes(data["signature"]),
            )
        except (KeyError, TypeError, ValueError, EncodingError) as exc:
            raise AccessDenied(f"malformed admin command: {exc}") from exc


class AdminVerifier:
    """Server-side verification of admin commands."""

    def __init__(self, keystore: Keystore, clock: Clock) -> None:
        self.keystore = keystore
        self.clock = clock
        #: Nonce → the time after which the freshness check alone refuses
        #: its command; a nonce is held only until then.
        self._seen_nonces: Dict[str, float] = {}

    def verify(self, command: AdminCommand) -> Tuple[PublicKey, str]:
        """Return (requester key, keystore label) or raise AccessDenied."""
        key = PublicKey(der=command.requester_key_der)
        label = self.keystore.label_of(key)  # AccessDenied if not authorised
        try:
            payload = AdminCommand._payload(
                command.op,
                command.args,
                command.issued_at,
                command.nonce,
                command.requester_key_der,
            )
            verify_payload(key, command.signature, payload)
        except (EncodingError, SignatureError) as exc:
            raise AccessDenied(f"admin command signature invalid: {exc}") from exc
        now = self.clock.now()
        if abs(now - command.issued_at) > FRESHNESS_WINDOW:
            raise AccessDenied(
                f"admin command outside freshness window "
                f"(issued_at={command.issued_at}, now={now})"
            )
        self._seen_nonces = {
            nonce: expiry for nonce, expiry in self._seen_nonces.items() if expiry >= now
        }
        if command.nonce in self._seen_nonces:
            raise AccessDenied("admin command nonce replayed")
        self._seen_nonces[command.nonce] = command.issued_at + FRESHNESS_WINDOW
        return key, label


class AdminClient:
    """Client-side helper: sign and send admin commands to a server."""

    def __init__(
        self,
        rpc: RpcClient,
        server_target,
        keys: KeyPair,
        clock: Clock,
    ) -> None:
        self.rpc = rpc
        self.target = server_target
        self.keys = keys
        self.clock = clock

    def execute(self, op: str, **args: Any) -> Any:
        command = AdminCommand.create(self.keys, op, args, self.clock)
        return self.rpc.call(self.target, "admin.execute", command=command.to_dict())

    def create_replica(self, document) -> Dict[str, Any]:
        """Install a signed document as a replica; returns id + address."""
        return self.execute("create_replica", document=document.to_dict())

    def destroy_replica(self, replica_id: str) -> Dict[str, Any]:
        return self.execute("destroy_replica", replica_id=replica_id)

    def update_replica(self, document) -> Dict[str, Any]:
        return self.execute("update_replica", document=document.to_dict())

    def list_replicas(self) -> Dict[str, Any]:
        return self.execute("list_replicas")
