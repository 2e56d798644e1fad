"""The Globe object server (§2.1.3).

"An object server is a process that provides an address space, contact
points and runtime services to the local representatives that it hosts"
plus "a remotely accessible interface that allows other local
representatives, other Globe object servers, or administrators to
request services from it", i.e. replica creation and destruction.

Two RPC surfaces:

* the **data** interface (``globedoc.*``) — unauthenticated, serves
  replica content to anyone; clients verify everything themselves;
* the **admin** interface (``admin.*``) — authenticated with signed
  commands checked against the keystore (standing in for the paper's
  TLS-with-client-keys channel); each entity may only manage the
  replicas it created.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.crypto.keys import PublicKey
from repro.errors import AccessDenied, ConsistencyError, ReplicaError, ServerError
from repro.globedoc.element import PageElement
from repro.globedoc.owner import SignedDocument
from repro.net.address import ContactAddress, Endpoint
from repro.net.rpc import RpcServer, rpc_method
from repro.revocation.feed import RevocationFeed
from repro.revocation.statement import SCOPE_KEY, RevocationStatement
from repro.server.admin import AdminCommand, AdminVerifier
from repro.server.keystore import Keystore
from repro.server.localrep import ReplicaLR, bind_answer
from repro.server.persistence import (
    ServerStateStore,
    authorize_record,
    create_record,
    destroy_record,
    revoke_record,
    update_record,
)
from repro.sim.clock import Clock, RealClock
from repro.storage.store import DurableStore
from repro.versioning.delta import SignedDelta
from repro.versioning.grant import WriterGrant
from repro.versioning.store import VersionedObjectStore, gossip_once

__all__ = ["ObjectServer", "HostedReplica"]

DEFAULT_SERVICE = "objectserver"


@dataclass
class HostedReplica:
    """A replica plus its hosting metadata."""

    replica_id: str
    oid_hex: str
    lr: ReplicaLR
    creator_label: str
    creator_key_der: bytes


class ObjectServer:
    """Hosts GlobeDoc replicas on one (simulated or real) host, whose
    *clock* is charged for the server's versioned admission work."""

    def __init__(
        self,
        host: str,
        site: str,
        keystore: Optional[Keystore] = None,
        clock: Optional[Clock] = None,
        service: str = DEFAULT_SERVICE,
        tracer=None,
        metrics=None,
        data_dir: Optional[str] = None,
        storage_sync: bool = True,
    ) -> None:
        self.host = host
        self.site = site
        self.keystore = keystore if keystore is not None else Keystore()
        self.clock = clock if clock is not None else RealClock()
        self.service = service
        #: Handed to the RPC server so request handling shows up in the
        #: access trace as ``server.handle`` spans.
        self.tracer = tracer
        self._replicas: Dict[str, HostedReplica] = {}
        self._by_oid: Dict[str, str] = {}
        self._verifier = AdminVerifier(self.keystore, self.clock)
        #: Durable backends (``data_dir`` set): the server journal holds
        #: keystore + replica state, the feed store holds the revocation
        #: log. ``storage_sync=False`` skips per-append fsync (tests).
        self.data_dir = data_dir
        self.state_store = None
        state_store = feed_store = versioning_store = None
        if data_dir is not None:
            state_store = ServerStateStore(
                os.path.join(data_dir, "server"), sync=storage_sync
            )
            feed_store = DurableStore(
                os.path.join(data_dir, "feed"), sync=storage_sync
            )
            versioning_store = DurableStore(
                os.path.join(data_dir, "versioning"), sync=storage_sync
            )
        #: This server's copy of the replicated revocation feed
        #: (recovers its own log from the feed store when durable).
        self.revocation_feed = RevocationFeed(clock=self.clock, store=feed_store)
        #: Multi-writer surface: per-OID signed delta DAGs, durably
        #: journaled and re-verified on recovery (fail closed).
        self.versioning = VersionedObjectStore(
            clock=self.clock, store=versioning_store, tracer=self.tracer
        )
        #: Operational events for the admin interface (entity
        #: revocations with the replicas they tore down).
        self.notices: List[Dict[str, Any]] = []
        #: Recovery accounting: what a restart reloaded and re-proved.
        self.recovered_replicas = 0
        self.reverified_replicas = 0
        if state_store is not None:
            self._recover_state(state_store)
        # A revoked keystore entity must stop serving, not just stop
        # creating: drop its hosted replicas the moment it is removed.
        self.keystore.subscribe(self._on_entity_revoked)
        if self.state_store is not None:
            # The revoke hook goes in *after* the teardown hook above: the
            # ``revoke`` record must follow the destroys it caused.
            self.keystore.subscribe_authorize(
                lambda label, key: self._journal(authorize_record, label, key.der)
            )
            self.keystore.subscribe(
                lambda label, key: self._journal(revoke_record, key.der)
            )
        # ``metrics`` is accepted but unused: ``perf/`` still passes it
        # (ROADMAP 1(a)/8(a) remove it); the stack keeps no metrics.

    # ------------------------------------------------------------------
    # Durable state
    # ------------------------------------------------------------------

    def _recover_state(self, state_store: ServerStateStore) -> None:
        """Reload keystore + replicas from disk; every replica has been
        re-verified by the store (signatures checked, fail closed) before
        it is installed here. ``self.state_store`` is set only once the
        replay is done, so the replay itself is not re-journaled."""
        state = state_store.recover()
        for label, key_der in state.keystore_entries:
            self.keystore.authorize(label, PublicKey(der=key_der))
        for replica in state.replicas:
            self.create_replica(
                replica.document,
                PublicKey(der=replica.creator_key_der),
                replica.creator_label,
            )
        self.recovered_replicas = len(state.replicas)
        self.reverified_replicas = state.reverified
        self.state_store = state_store

    def _journal(self, record_fn, *args) -> None:
        """Durably record one admin-surface mutation as ``record_fn(*args)``
        (no-op in memory and during recovery); past the compaction
        threshold, rewrite the log down to the live state."""
        if self.state_store is not None:
            self.state_store.store.append(record_fn(*args))
            self.state_store.store.maybe_compact(self._durable_records)

    def _durable_records(self) -> List[dict]:
        """The journal that rebuilds the live state — one ``authorize``
        per keystore entry, one ``replica.create`` per hosted replica
        (re-validated by ``SignedDocument.from_state`` on the way out)."""
        return [
            authorize_record(label, key_der)
            for label, key_der in self.keystore.entries()
        ] + [
            create_record(
                hosted.replica_id,
                SignedDocument.from_state(hosted.lr.state),
                hosted.creator_label,
                hosted.creator_key_der,
            )
            for _, hosted in sorted(self._replicas.items())
        ]

    def compact(self) -> None:
        """Rewrite every durable log this server owns down to its live
        state (no-op when in-memory)."""
        if self.state_store is not None:
            self.state_store.store.compact(self._durable_records())
        self.revocation_feed.compact()
        self.versioning.compact()

    def close(self) -> None:
        """Flush and close the durable stores (no-op when in-memory)."""
        if self.state_store is not None:
            self.state_store.store.close()
        if self.revocation_feed.store is not None:
            self.revocation_feed.store.close()
        self.versioning.close()

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------

    @property
    def endpoint(self) -> Endpoint:
        return Endpoint(host=self.host, service=self.service)

    def contact_address(self, oid_hex: str) -> ContactAddress:
        """The contact address for the replica of *oid_hex* on this server."""
        replica_id = self._by_oid.get(oid_hex)
        if replica_id is None:
            raise ReplicaError(f"no replica of {oid_hex[:12]}… on {self.host}")
        return ContactAddress(
            endpoint=self.endpoint,
            protocol="globedoc/replica",
            replica_id=replica_id,
        )

    # ------------------------------------------------------------------
    # Replica lifecycle (authenticated admin surface)
    # ------------------------------------------------------------------

    def create_replica(
        self, document: SignedDocument, creator_key: PublicKey, creator_label: str
    ) -> HostedReplica:
        """Install a replica of *document* (internal, pre-authenticated)."""
        oid_hex = document.oid.hex
        if oid_hex in self._by_oid:
            raise ReplicaError(f"replica of {oid_hex[:12]}… already hosted on {self.host}")
        replica_id = f"{oid_hex[:16]}@{self.host}"
        hosted = HostedReplica(
            replica_id=replica_id,
            oid_hex=oid_hex,
            lr=ReplicaLR(document.state()),
            creator_label=creator_label,
            creator_key_der=creator_key.der,
        )
        self._replicas[replica_id] = hosted
        self._by_oid[oid_hex] = replica_id
        self._journal(
            create_record, replica_id, document, creator_label, creator_key.der
        )
        return hosted

    def destroy_replica(self, replica_id: str, requester_key: PublicKey) -> None:
        """Remove a replica; only its creator may do so (§4)."""
        hosted = self._replicas.get(replica_id)
        if hosted is None:
            raise ReplicaError(f"no such replica {replica_id!r} on {self.host}")
        if hosted.creator_key_der != requester_key.der:
            raise AccessDenied(
                f"replica {replica_id!r} was created by {hosted.creator_label!r}; "
                "only its creator may destroy it"
            )
        del self._replicas[replica_id]
        self._by_oid.pop(hosted.oid_hex, None)
        self._journal(destroy_record, replica_id)

    def update_replica(
        self, document: SignedDocument, requester_key: PublicKey
    ) -> HostedReplica:
        """Push a new document version to an existing replica."""
        oid_hex = document.oid.hex
        replica_id = self._by_oid.get(oid_hex)
        if replica_id is None:
            raise ReplicaError(f"no replica of {oid_hex[:12]}… on {self.host}")
        hosted = self._replicas[replica_id]
        if hosted.creator_key_der != requester_key.der:
            raise AccessDenied("only the replica creator may update it")
        hosted.lr.update_state(document.state())
        self._journal(update_record, replica_id, document)
        return hosted

    # ------------------------------------------------------------------
    # Revocation
    # ------------------------------------------------------------------

    def revoke_entity(self, key: PublicKey) -> bool:
        """Revoke a keystore entity: key out, its replicas down, admin
        notified. True if the key was present (idempotent)."""
        return self.keystore.revoke(key)

    def _on_entity_revoked(self, label: str, key: PublicKey) -> None:
        """Keystore callback: tear down everything the entity placed
        here (server-administrator authority — the creator-only rule
        guards *peers*, not the host's own housekeeping)."""
        dropped: List[str] = []
        for replica_id, hosted in list(self._replicas.items()):
            if hosted.creator_key_der == key.der:
                del self._replicas[replica_id]
                self._by_oid.pop(hosted.oid_hex, None)
                # Appended with no compaction check: the key is already out
                # of the keystore, so a log rewritten mid-loop would keep the
                # remaining replicas with no ``authorize`` left to re-revoke.
                # The ``revoke`` record that follows makes the one check.
                if self.state_store is not None:
                    self.state_store.store.append(destroy_record(replica_id))
                dropped.append(replica_id)
        self.notices.append(
            {
                "event": "entity_revoked",
                "label": label,
                "at": self.clock.now(),
                "replicas_dropped": sorted(dropped),
            }
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def replica(self, replica_id: str) -> HostedReplica:
        hosted = self._replicas.get(replica_id)
        if hosted is None:
            raise ReplicaError(f"no such replica {replica_id!r} on {self.host}")
        return hosted

    def replica_for_oid(self, oid_hex: str) -> HostedReplica:
        replica_id = self._by_oid.get(oid_hex)
        if replica_id is None:
            raise ReplicaError(f"no replica of {oid_hex[:12]}… on {self.host}")
        return self._replicas[replica_id]

    def hosts_oid(self, oid_hex: str) -> bool:
        return oid_hex in self._by_oid

    @property
    def replica_ids(self) -> List[str]:
        return sorted(self._replicas)

    @property
    def replica_count(self) -> int:
        return len(self._replicas)

    # ------------------------------------------------------------------
    # RPC data interface (untrusted surface)
    # ------------------------------------------------------------------

    def _lr(self, replica_id: str) -> ReplicaLR:
        return self.replica(replica_id).lr

    @rpc_method("globedoc.get_public_key")
    def rpc_get_public_key(self, replica_id: str) -> bytes:
        return self._lr(replica_id).get_public_key().der

    @rpc_method("globedoc.get_identity_certificates")
    def rpc_get_identity_certificates(self, replica_id: str) -> list:
        return [c.to_dict() for c in self._lr(replica_id).get_identity_certificates()]

    @rpc_method("globedoc.get_integrity_certificate")
    def rpc_get_integrity_certificate(self, replica_id: str) -> dict:
        return self._lr(replica_id).get_integrity_certificate().to_dict()

    def _element(self, replica_id: str, name: str) -> Tuple[PageElement]:
        return (self._lr(replica_id).get_element(name),)

    @rpc_method("globedoc.get_element", basis=_element)
    def rpc_get_element(self, element: PageElement) -> dict:
        """The answer to ``rpc_get_element(replica_id, name)``."""
        return element.to_dict()

    def _binding(self, replica_id: str, name: str) -> tuple:
        """Key, identity certificates, certificate and element *name*
        (None when the replica holds no such element)."""
        lr = self._lr(replica_id)
        try:
            element = lr.get_element(name)
        except ConsistencyError:
            element = None  # the client's own get_element hears why
        return (
            lr.get_public_key(),
            tuple(lr.get_identity_certificates()),
            lr.get_integrity_certificate(),
            element,
        )

    @rpc_method("globedoc.bind", basis=_binding)
    def rpc_bind(self, key, identity_certificates, integrity, element) -> dict:
        """``rpc_bind(replica_id, name)``: key, identity certificates,
        certificate and element *name* in one answer: a cold access's
        reads of this replica, bundled."""
        return bind_answer(key, identity_certificates, integrity, element)

    # ------------------------------------------------------------------
    # RPC revocation feed (self-authenticating surface)
    # ------------------------------------------------------------------
    #
    # Neither operation needs the admin channel: statements carry their
    # own proof (signed by the key their OID self-certifies), so the
    # server verifies each one on publish and clients re-verify on
    # fetch. Wider distribution of a genuine revocation only helps.

    @rpc_method("revocation.fetch")
    def rpc_revocation_fetch(self, since: int = 0) -> dict:
        return self.revocation_feed.fetch(since=since)

    @rpc_method("revocation.publish")
    def rpc_revocation_publish(self, statement: Mapping[str, Any]) -> dict:
        stmt = RevocationStatement.from_dict(statement)
        added = self.revocation_feed.publish(stmt)  # verifies; raises on garbage
        if added and stmt.scope == SCOPE_KEY:
            # A revoked object key is also a revoked hosting entity:
            # its locally hosted replicas must stop serving now, not at
            # the clients' next revocation check.
            self.revoke_entity(stmt.issuer_key)
        return {"added": added, "head": self.revocation_feed.head}

    # ------------------------------------------------------------------
    # RPC versioning interface (untrusted multi-writer surface)
    # ------------------------------------------------------------------
    #
    # Like the data interface, none of this needs the admin channel:
    # grants and deltas carry their own proof (owner / granted-writer
    # signatures over self-certifying OIDs), the store verifies each
    # artifact on admission, and clients re-verify everything through
    # the frontier check. The server is plumbing, never authority.

    @rpc_method("versioning.register")
    def rpc_versioning_register(self, object_key_der: bytes) -> dict:
        oid_hex = self.versioning.register_object(PublicKey.from_der(object_key_der))
        return {"oid": oid_hex}

    @rpc_method("versioning.put_grant")
    def rpc_versioning_put_grant(
        self, oid_hex: str, grant: Mapping[str, Any]
    ) -> dict:
        added = self.versioning.put_grant(oid_hex, WriterGrant.from_dict(grant))
        return {"added": added}

    @rpc_method("versioning.publish_delta")
    def rpc_versioning_publish_delta(
        self, oid_hex: str, delta: Mapping[str, Any]
    ) -> dict:
        added = self.versioning.put_delta(oid_hex, SignedDelta.from_dict(delta))
        return {
            "added": added,
            "heads": self.versioning.heads(oid_hex),
            "delta_count": self.versioning.delta_count(oid_hex),
        }

    @rpc_method("versioning.fetch")
    def rpc_versioning_fetch(
        self,
        oid_hex: str,
        have_heads: Optional[list] = None,
        have_grants: Optional[list] = None,
    ) -> dict:
        return self.versioning.fetch(
            oid_hex, have_heads=have_heads, have_grants=have_grants
        )

    def gossip_versioned(self, rpc, peer_endpoint, oid_hex: str) -> dict:
        """One anti-entropy round for *oid_hex* against a peer server."""
        return gossip_once(
            self.versioning, rpc, peer_endpoint, oid_hex, tracer=self.tracer
        )

    # ------------------------------------------------------------------
    # RPC admin interface (authenticated surface)
    # ------------------------------------------------------------------

    @rpc_method("admin.execute")
    def rpc_admin_execute(self, command: Mapping[str, Any]) -> Any:
        """Verify and dispatch a signed admin command."""
        cmd = AdminCommand.from_dict(command)
        requester_key, label = self._verifier.verify(cmd)
        if cmd.op == "create_replica":
            document = SignedDocument.from_dict(cmd.args["document"])
            hosted = self.create_replica(document, requester_key, label)
            return {
                "replica_id": hosted.replica_id,
                "address": self.contact_address(hosted.oid_hex).to_dict(),
            }
        if cmd.op == "destroy_replica":
            self.destroy_replica(str(cmd.args["replica_id"]), requester_key)
            return {"destroyed": True}
        if cmd.op == "update_replica":
            document = SignedDocument.from_dict(cmd.args["document"])
            hosted = self.update_replica(document, requester_key)
            return {"replica_id": hosted.replica_id, "version": hosted.lr.version}
        if cmd.op == "list_replicas":
            return {
                "replicas": [
                    {"replica_id": r, "oid": self._replicas[r].oid_hex}
                    for r in self.replica_ids
                ]
            }
        if cmd.op == "list_notices":
            return {"notices": list(self.notices)}
        raise ServerError(f"unknown admin operation {cmd.op!r}")

    def rpc_server(self) -> RpcServer:
        server = RpcServer(name=f"objectserver@{self.host}", tracer=self.tracer)
        server.register_object(self)
        return server
