"""Durable backend for an object server: keystore + hosted replicas.

The server journals every admin-surface mutation — keystore
authorizations and revocations, replica create/update/destroy — through
a :class:`~repro.storage.store.DurableStore`, and recovers by reducing
the journal back to the final state.

Recovery-time re-verification
-----------------------------
A recovered replica is exactly as untrusted as one fetched off the
wire: before it is allowed to serve a single byte, the loaded document
must prove itself —

1. the embedded public key hashes to the stated OID (self-certification),
2. the integrity certificate's signature verifies under that key,
3. every element's content hash matches its certificate row.

Any failure raises :class:`~repro.errors.RecoveryIntegrityError`: a
CRC-valid record that no longer verifies means tampering at rest, and a
server that "recovered" it would become exactly the malicious replica
the client-side checks exist to catch. Keystore entries carry no
signatures (they are the administrator's local configuration), so for
them the CRC is the integrity story, as for any config file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.crypto.keys import PublicKey
from repro.errors import RecoveryIntegrityError, ReproError
from repro.globedoc.owner import SignedDocument
from repro.storage.store import DurableStore
from repro.util.encoding import wire_bytes

__all__ = [
    "ServerStateStore", "RecoveredReplica", "RecoveredServerState",
    "authorize_record", "revoke_record", "create_record", "update_record",
    "destroy_record",
]


@dataclass
class RecoveredReplica:
    """One replica loaded from disk, already re-verified."""

    replica_id: str
    document: SignedDocument
    creator_label: str
    creator_key_der: bytes


@dataclass
class RecoveredServerState:
    """The reduced, verified state handed back to the object server."""

    #: ``(label, key_der)`` keystore entries, insertion order.
    keystore_entries: List[Tuple[str, bytes]] = field(default_factory=list)
    replicas: List[RecoveredReplica] = field(default_factory=list)
    #: Replicas that passed full re-verification (== len(replicas):
    #: recovery fails closed on the first one that does not).
    reverified: int = 0


# ----------------------------------------------------------------------
# The journal vocabulary: one record per admin-surface mutation. A
# compaction rewrites the log as the ``authorize`` and ``replica.create``
# records of the live state; :meth:`ServerStateStore._apply` reads all five.
# ----------------------------------------------------------------------


def authorize_record(label: str, key_der: bytes) -> dict:
    return {"op": "authorize", "label": label, "key_der": key_der}


def revoke_record(key_der: bytes) -> dict:
    return {"op": "revoke", "key_der": key_der}


def create_record(
    replica_id: str,
    document: SignedDocument,
    creator_label: str,
    creator_key_der: bytes,
) -> dict:
    return {
        "op": "replica.create",
        "replica_id": replica_id,
        "document": document.to_dict(),
        "creator_label": creator_label,
        "creator_key_der": creator_key_der,
    }


def update_record(replica_id: str, document: SignedDocument) -> dict:
    return {
        "op": "replica.update",
        "replica_id": replica_id,
        "document": document.to_dict(),
    }


def destroy_record(replica_id: str) -> dict:
    return {"op": "replica.destroy", "replica_id": replica_id}


class ServerStateStore:
    """Journal persistence for one :class:`ObjectServer`."""

    def __init__(
        self,
        directory,
        sync: bool = True,
        compact_every: Optional[int] = 64,
    ) -> None:
        self.store = DurableStore(
            directory, sync=sync, compact_every=compact_every
        )

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def recover(self) -> RecoveredServerState:
        """Reduce the journal to final state; re-verify replicas."""
        keystore: Dict[bytes, str] = {}
        replicas: Dict[str, dict] = {}
        self.store.replay(lambda record: self._apply(record, keystore, replicas))
        state = RecoveredServerState(
            keystore_entries=[(label, der) for der, label in keystore.items()]
        )
        for entry in replicas.values():
            state.replicas.append(self._reverify(entry))
            state.reverified += 1
        return state

    @staticmethod
    def _apply(record: dict, keystore: Dict[bytes, str], replicas: Dict[str, dict]) -> None:
        op = record.get("op")
        if op == "authorize":
            keystore[PublicKey.from_der(record["key_der"]).der] = str(record["label"])
        elif op == "revoke":
            keystore.pop(PublicKey.from_der(record["key_der"]).der, None)
        elif op == "replica.create":
            replicas[str(record["replica_id"])] = dict(record)
        elif op == "replica.update":
            replica = replicas.get(str(record["replica_id"]))
            if replica is not None:
                replica["document"] = record["document"]
        elif op == "replica.destroy":
            replicas.pop(str(record["replica_id"]), None)
        else:
            raise RecoveryIntegrityError(
                f"server journal holds an unknown operation {op!r} — "
                "refusing to guess at state it would have produced"
            )

    @staticmethod
    def _reverify(entry: dict) -> RecoveredReplica:
        """Prove a loaded replica genuine before it may serve (see
        module docstring for the three checks)."""
        replica_id = str(entry["replica_id"])
        try:
            document = SignedDocument.from_dict(entry["document"])
        except Exception as exc:
            raise RecoveryIntegrityError(
                f"recovered replica {replica_id!r} does not decode: {exc}"
            ) from exc
        if not document.oid.matches_key(document.public_key):
            raise RecoveryIntegrityError(
                f"recovered replica {replica_id!r} embeds a public key that "
                "does not hash to its OID — tampered at rest"
            )
        try:
            # Signature of the integrity certificate under the object
            # key (clock=None: authenticity, not freshness — expiry is
            # enforced per-access by the client pipeline), then every
            # element hash against its certificate row.
            document.integrity.verify_signature(document.public_key, clock=None)
            document.state()
        except ReproError as exc:
            raise RecoveryIntegrityError(
                f"recovered replica {replica_id!r} failed re-verification — "
                f"refusing to serve unproven bytes: {exc}"
            ) from exc
        return RecoveredReplica(
            replica_id=replica_id,
            document=document,
            creator_label=str(entry["creator_label"]),
            creator_key_der=wire_bytes(entry["creator_key_der"]),
        )
