"""The replication coordinator: policies → placements.

The coordinator is the owner-side automation that makes GlobeDoc's
"replication strategy inside the object" concrete. It tracks the
request stream per managed document (fed back by object servers or the
experiment driver), asks the document's policy for placement actions,
and executes them: pushing the signed state to the target site's object
server through the *authenticated* admin interface and registering the
new contact address in the location service.

Note what is *not* here: no key material beyond the owner's admin
credentials, and no trust in the target servers — they receive exactly
the signed bytes any client can verify.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import ReplicationError
from repro.globedoc.oid import ObjectId
from repro.globedoc.owner import DocumentOwner, SignedDocument
from repro.location.service import LocationClient
from repro.net.address import ContactAddress
from repro.replication.policy import (
    ActionKind,
    PlacementAction,
    ReplicationPolicy,
    RequestObservation,
)
from repro.server.admin import AdminClient

__all__ = ["ReplicationCoordinator", "ManagedDocument", "SitePort"]


@dataclass
class SitePort:
    """How the coordinator reaches one site: the admin client for that
    site's object server, plus the location-tree site path."""

    site: str
    admin: AdminClient

    def __post_init__(self) -> None:
        if not self.site:
            raise ReplicationError("site path must be non-empty")


@dataclass
class ManagedDocument:
    """Coordinator state for one document."""

    owner: DocumentOwner
    policy: ReplicationPolicy
    home_site: str
    current: SignedDocument
    #: site -> the contact address registered for its replica
    addresses: Dict[str, ContactAddress] = field(default_factory=dict)
    placements: int = 0

    @property
    def oid(self) -> ObjectId:
        return self.owner.oid

    @property
    def sites(self) -> List[str]:
        """Replica sites, home first (the policy contract)."""
        others = sorted(s for s in self.addresses if s != self.home_site)
        return [self.home_site] + others


class ReplicationCoordinator:
    """Drives replica placement for a set of managed documents."""

    def __init__(self, location: LocationClient) -> None:
        self.location = location
        self._ports: Dict[str, SitePort] = {}
        self._documents: Dict[str, ManagedDocument] = {}

    # ------------------------------------------------------------------
    # Topology / document registration
    # ------------------------------------------------------------------

    def add_site(self, port: SitePort) -> None:
        self._ports[port.site] = port

    def manage(
        self,
        owner: DocumentOwner,
        document: SignedDocument,
        policy: ReplicationPolicy,
        home_site: str,
    ) -> ManagedDocument:
        """Start managing *document*: place it at its home site."""
        if home_site not in self._ports:
            raise ReplicationError(f"no object server registered at site {home_site!r}")
        managed = ManagedDocument(
            owner=owner, policy=policy, home_site=home_site, current=document
        )
        self._documents[owner.oid.hex] = managed
        self._place(managed, home_site)
        return managed

    def document(self, oid: ObjectId) -> ManagedDocument:
        managed = self._documents.get(oid.hex)
        if managed is None:
            raise ReplicationError(f"document {oid.hex[:12]}… is not managed")
        return managed

    # ------------------------------------------------------------------
    # Request feedback loop
    # ------------------------------------------------------------------

    def observe_request(self, oid: ObjectId, observation: RequestObservation) -> List[PlacementAction]:
        """Feed one request into the document's policy; execute actions."""
        managed = self.document(oid)
        actions = managed.policy.on_request(observation, managed.sites)
        for action in actions:
            self._execute(managed, action)
        return actions

    def _execute(self, managed: ManagedDocument, action: PlacementAction) -> None:
        if action.kind is ActionKind.CREATE:
            if action.site in managed.addresses:
                return  # already there; policies may race with themselves
            if action.site not in self._ports:
                return  # no server capacity at that site
            self._place(managed, action.site)
        elif action.kind is ActionKind.DESTROY:
            if action.site == managed.home_site:
                raise ReplicationError("policies must never destroy the home replica")
            self._remove(managed, action.site)

    # ------------------------------------------------------------------
    # Placement primitives
    # ------------------------------------------------------------------

    def _place(self, managed: ManagedDocument, site: str) -> None:
        port = self._ports[site]
        result = port.admin.create_replica(managed.current)
        address = ContactAddress.from_dict(result["address"])
        self.location.register_replica(managed.oid, site, address)
        managed.addresses[site] = address
        managed.placements += 1

    def _remove(self, managed: ManagedDocument, site: str) -> None:
        address = managed.addresses.get(site)
        if address is None:
            return
        # Unregister from location first so no new binds land on it.
        self.location.unregister_replica(managed.oid, site, address)
        self._ports[site].admin.destroy_replica(address.replica_id)
        del managed.addresses[site]

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def publish_revocation(self, statement) -> List[str]:
        """Push a signed revocation statement to every registered site's
        feed; returns the sites reached.

        Distribution uses the same admin ports as placement, but the
        target RPC is the *unauthenticated* feed surface — the statement
        authenticates itself. Sites that cannot be reached are skipped
        (their clients hit the staleness window and fail closed, so an
        unreachable site degrades to denial of service only).
        """
        from repro.errors import NetworkError

        wire = statement.to_dict()
        reached: List[str] = []
        for site in sorted(self._ports):
            port = self._ports[site]
            try:
                port.admin.rpc.call(
                    port.admin.target, "revocation.publish", statement=wire
                )
            except NetworkError:
                continue
            reached.append(site)
        return reached

    def publish_update(self, oid: ObjectId, document: SignedDocument) -> List[str]:
        """A new version from the owner: push it to every replica site;
        returns the sites updated."""
        managed = self.document(oid)
        if document.version <= managed.current.version:
            raise ReplicationError(
                f"version {document.version} is not newer than {managed.current.version}"
            )
        managed.current = document
        for site in managed.sites:
            self._ports[site].admin.update_replica(document)
        return managed.sites
