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
from typing import Dict, List, Optional, Sequence

from repro.errors import ReplicationError
from repro.globedoc.oid import ObjectId
from repro.globedoc.owner import DocumentOwner, SignedDocument
from repro.location.service import LocationClient
from repro.net.address import ContactAddress
from repro.replication.consistency import ConsistencyModel, PushInvalidation
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

    def quote(self) -> dict:
        """Fetch the server's hosting quote (public, unauthenticated)."""
        return self.admin.rpc.call(self.admin.target, "server.quote")


@dataclass
class ManagedDocument:
    """Coordinator state for one document."""

    owner: DocumentOwner
    policy: ReplicationPolicy
    home_site: str
    current: SignedDocument
    replica_ids: Dict[str, str] = field(default_factory=dict)  # site -> replica id
    placements: int = 0
    removals: int = 0

    @property
    def oid(self) -> ObjectId:
        return self.owner.oid

    @property
    def sites(self) -> List[str]:
        """Replica sites, home first (the policy contract)."""
        others = sorted(s for s in self.replica_ids if s != self.home_site)
        return [self.home_site] + others


class ReplicationCoordinator:
    """Drives replica placement for a set of managed documents."""

    def __init__(
        self,
        location: LocationClient,
        consistency: Optional[ConsistencyModel] = None,
    ) -> None:
        self.location = location
        self.consistency = consistency if consistency is not None else PushInvalidation()
        self._ports: Dict[str, SitePort] = {}
        self._documents: Dict[str, ManagedDocument] = {}

    # ------------------------------------------------------------------
    # Topology / document registration
    # ------------------------------------------------------------------

    def add_site(self, port: SitePort) -> None:
        self._ports[port.site] = port

    @property
    def known_sites(self) -> List[str]:
        return sorted(self._ports)

    def manage(
        self,
        owner: DocumentOwner,
        document: SignedDocument,
        policy: ReplicationPolicy,
        home_site: str,
    ) -> ManagedDocument:
        """Start managing *document*: place it at its home site and at
        the policy's initial sites."""
        if home_site not in self._ports:
            raise ReplicationError(f"no object server registered at site {home_site!r}")
        managed = ManagedDocument(
            owner=owner, policy=policy, home_site=home_site, current=document
        )
        self._documents[owner.oid.hex] = managed
        self._place(managed, home_site)
        for site in policy.initial_sites(home_site, self.known_sites):
            if site in self._ports:
                self._place(managed, site)
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
            if action.site in managed.replica_ids:
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
        managed.replica_ids[site] = str(result["replica_id"])
        managed.placements += 1

    def _remove(self, managed: ManagedDocument, site: str) -> None:
        replica_id = managed.replica_ids.get(site)
        if replica_id is None:
            return
        port = self._ports[site]
        # Unregister from location first so no new binds land on it.
        address = self._address_for(port, replica_id)
        self.location.unregister_replica(managed.oid, site, address)
        port.admin.destroy_replica(replica_id)
        del managed.replica_ids[site]
        managed.removals += 1

    @staticmethod
    def _address_for(port: SitePort, replica_id: str) -> ContactAddress:
        target = port.admin.target
        endpoint = target.endpoint if isinstance(target, ContactAddress) else target
        return ContactAddress(
            endpoint=endpoint,
            protocol="globedoc/replica",
            replica_id=replica_id,
        )

    # ------------------------------------------------------------------
    # Hosting negotiation (§6 future work)
    # ------------------------------------------------------------------

    def negotiate_placement(
        self,
        oid: ObjectId,
        requirements: "QosRequirements",
        candidate_sites: Optional[Sequence[str]] = None,
    ):
        """Negotiate and execute one placement under *requirements*.

        Collects hosting quotes from the candidate sites (default: every
        registered site without a replica), picks the best acceptable
        offer, places the replica there, and returns the concluded
        :class:`~repro.replication.negotiation.HostingAgreement`.
        Raises :class:`~repro.errors.ReplicationError` with the rejection
        reasons when no server can satisfy the requirements.
        """
        from dataclasses import replace

        from repro.replication.negotiation import (
            HostingAgreement,
            QosRequirements,
            choose_site,
        )

        managed = self.document(oid)
        if requirements.disk_bytes <= 0:
            requirements = replace(
                requirements, disk_bytes=managed.current.total_size
            )
        if candidate_sites is None:
            candidate_sites = [
                site for site in self.known_sites if site not in managed.replica_ids
            ]
        quotes = [self._ports[site].quote() for site in candidate_sites]
        chosen = choose_site(requirements, quotes)
        self._place(managed, chosen.site)
        return HostingAgreement(
            site=chosen.site,
            host=chosen.host,
            requirements=requirements,
            quote=next(q for q in quotes if q.get("site") == chosen.site),
        )

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
        """A new version from the owner: propagate per consistency model."""
        managed = self.document(oid)
        if document.version <= managed.current.version:
            raise ReplicationError(
                f"version {document.version} is not newer than {managed.current.version}"
            )
        managed.current = document

        def push(site: str, doc: SignedDocument) -> None:
            self._ports[site].admin.update_replica(doc)

        return self.consistency.on_publish(document, managed.sites, push)
