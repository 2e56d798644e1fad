"""The composition root: the one place that knows how the stack is wired.

Security lives in the object, not the channel (§2, Fig. 3), so the
naming → location → object server → rpc → retry → binder → checker →
session → proxy → scheduler stack is the same stack over a simulated
WAN, an in-process loopback or a real socket: ``SimNetwork``,
``LoopbackTransport`` and a ``TcpEndpointServer`` behind a
``TcpTransport`` all fit :class:`Deployment` as they are.
``tests/test_deployment.py`` keeps this module the only construction
site of the classes it wires.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional

from repro.crypto.identity import TrustStore
from repro.crypto.keys import KeyPair
from repro.crypto.verifycache import VerificationCache
from repro.globedoc.element import PageElement
from repro.globedoc.owner import DocumentOwner, SignedDocument
from repro.globedoc.urls import HybridUrl
from repro.location.persistence import DurableLocationStore
from repro.location.service import LocationClient, LocationService
from repro.location.tree import DomainTree
from repro.naming.dnssec import SignedZone
from repro.naming.persistence import DurableNamingStore
from repro.naming.records import OidRecord
from repro.naming.service import NameService, SecureResolver
from repro.naming.zone import Zone
from repro.net.address import ContactAddress, Endpoint
from repro.net.health import ReplicaHealthTracker
from repro.net.retry import RetryingRpcClient, RetryPolicy
from repro.net.rpc import RpcClient
from repro.net.transport import FrameHandler, Transport
from repro.proxy.binding import Binder
from repro.proxy.checks import SecurityChecker
from repro.proxy.clientproxy import GlobeDocProxy
from repro.proxy.pipeline import AccessScheduler, PipelineConfig, PrefetchingRpcClient
from repro.replication.coordinator import ReplicationCoordinator, SitePort
from repro.revocation.checker import RevocationChecker
from repro.revocation.statement import RevocationStatement
from repro.server.admin import AdminClient
from repro.server.objectserver import ObjectServer
from repro.sim.clock import Clock

__all__ = ["Deployment", "ClientStack", "PublishedObject", "ZONE_PATHS"]

#: The signed zone chain every deployment serves: root → ``nl`` → ``nl/vu``.
ZONE_PATHS = ("", "nl", "nl/vu")


@dataclass
class PublishedObject:
    """A document placed on a deployment: owner + current signed version."""

    owner: DocumentOwner
    document: SignedDocument
    name: str
    replica_addresses: Dict[str, ContactAddress] = field(default_factory=dict)

    @property
    def oid_hex(self) -> str:
        return self.owner.oid.hex

    def url(self, element: str) -> str:
        return HybridUrl.for_name(self.name, element).raw


@dataclass
class ClientStack:
    """Everything a client needs to browse securely."""

    transport: Transport
    rpc: RpcClient
    resolver: SecureResolver
    location: LocationClient
    binder: Binder
    checker: SecurityChecker
    proxy: GlobeDocProxy
    #: ``fresh_proxy(cache_binding=True, require_identity=False)``: a new
    #: proxy (fresh sessions) from the construction site ``proxy`` came
    #: from — same caches, failover budget, tracer, pipeline.
    fresh_proxy: Callable[..., GlobeDocProxy]
    revocation: Optional[RevocationChecker] = None
    scheduler: Optional[AccessScheduler] = None


class Deployment:
    """Naming, location and object servers on one services host.

    ``register(endpoint, handler)`` exposes a frame handler on the
    caller's fabric and ``transport_for(host)`` gives a host its client
    transport. ``host_sites`` maps every host of the deployment — the
    services host *host*, replica hosts, clients — to its site, a leaf
    of the location service's domain tree. Document owners push from
    ``owner_host`` (default: *host*). ``clock_for(host)`` (default:
    *clock*) is the clock a host's object server and client checkers run
    on and charge their work to.
    Client stacks resolve a name with one signed answer and read a
    replica with one ``globedoc.bind``; ``fig3_walk=True`` makes them
    walk Fig. 3 instead: the zones one step each, then the key, the
    certificate and the element one call each.
    """

    def __init__(
        self,
        clock: Clock,
        register: Callable[[Endpoint, FrameHandler], None],
        transport_for: Callable[[str], Transport],
        host: str,
        host_sites: Mapping[str, str],
        owner_host: Optional[str] = None,
        *,
        tracer=None,
        data_dir: Optional[str] = None,
        storage_sync: bool = True,
        zone_keys: Optional[Dict[str, object]] = None,
        clock_for: Optional[Callable[[str], Clock]] = None,
        fig3_walk: bool = False,
    ) -> None:
        self.clock = clock
        self.register = register
        self.transport_for = transport_for
        self.host = host
        self.host_sites = host_sites
        self.site = host_sites[host]
        self.owner_host = owner_host if owner_host is not None else host
        self.clock_for = clock_for if clock_for is not None else lambda host: clock
        self.naming_endpoint = Endpoint(host, "naming")
        self.location_endpoint = Endpoint(host, "location")
        self.objectserver_endpoint = Endpoint(host, "objectserver")
        #: Optional service-side tracer: the services' RPC surfaces
        #: record ``server.handle`` spans into it.
        self.tracer = tracer
        #: ``data_dir`` turns on durable backends: the primary object
        #: server journals keystore + replicas + revocation feed under
        #: it, and the naming/location services journal their published
        #: records. A second deployment pointed at the same directory
        #: recovers them (the restart primitive of
        #: ``tests/integration/test_crash_recovery.py``).
        self.data_dir = data_dir
        self.storage_sync = storage_sync
        #: Zone signing keys to reuse (restart): the key ceremony is
        #: administrator configuration and survives restarts out of
        #: band; only the *published records* go through the durable
        #: store. Map of zone path (:data:`ZONE_PATHS`) → ZoneKeys.
        keys = zone_keys if zone_keys is not None else {}
        #: True: client stacks take the paper's Fig. 3 path — resolvers
        #: walk the zones one ``naming.resolve_step`` at a time instead
        #: of asking for the whole signed chain in one ``naming.resolve``,
        #: and LRs fetch key, certificate and element one call each
        #: instead of in one ``globedoc.bind``. Read per ``client_stack``.
        self.fig3_walk = fig3_walk

        def durable(store_class, name: str, service):
            if data_dir is None:
                return None
            store = store_class(os.path.join(data_dir, name), sync=storage_sync)
            store.bind(service)
            return store

        # Naming: root -> nl -> nl/vu zone chain, DNSsec-signed.
        self.root_zone, self.nl_zone, self.vu_zone = (
            SignedZone(Zone(path), keys=keys.get(path)) for path in ZONE_PATHS
        )
        self.naming = NameService(self.root_zone)
        self.naming.add_zone(self.nl_zone)
        self.naming.add_zone(self.vu_zone)
        self.naming_store = durable(DurableNamingStore, "naming", self.naming)

        # Location: one domain tree over the deployment's sites.
        tree = DomainTree()
        for path in sorted(set(host_sites.values())):
            tree.add_site(path)
        self.location_service = LocationService(tree)
        self.location_store = durable(
            DurableLocationStore, "location", self.location_service
        )

        register(self.naming_endpoint, self.naming.rpc_server(tracer=tracer).handle_frame)
        register(
            self.location_endpoint,
            self.location_service.rpc_server(tracer=tracer).handle_frame,
        )
        #: Object servers by host; :meth:`start_server` adds more.
        self.servers: Dict[str, ObjectServer] = {}
        #: The primary: holds the first replica of every published
        #: document and the revocation feed clients pull.
        self.object_server = self.start_server(
            host,
            tracer=tracer,
            data_dir=(
                os.path.join(data_dir, "objectserver") if data_dir is not None else None
            ),
        )

    def start_server(
        self,
        host: str,
        *,
        tracer=None,
        data_dir: Optional[str] = None,
    ) -> ObjectServer:
        """Start *host*'s object server (at its site) and expose it."""
        server = self.servers[host] = ObjectServer(
            host=host,
            site=self.host_sites[host],
            clock=self.clock_for(host),
            tracer=tracer,
            data_dir=data_dir,
            storage_sync=self.storage_sync,
        )
        self.register(server.endpoint, server.rpc_server().handle_frame)
        return server

    @property
    def zone_keys(self) -> Dict[str, object]:
        """The naming zone keys, for handing to a restarted deployment."""
        zones = (self.root_zone, self.nl_zone, self.vu_zone)
        return {path: zone.keys for path, zone in zip(ZONE_PATHS, zones)}

    def _stores(self) -> list:
        stores = (self.object_server, self.naming_store, self.location_store)
        return [store for store in stores if store is not None]

    def compact_stores(self) -> None:
        """Rewrite every durable log down to its live state."""
        for store in self._stores():
            store.compact()

    def close_stores(self) -> None:
        """Flush and close every durable store (simulated crash or clean
        shutdown — the stores are crash-consistent either way)."""
        for store in self._stores():
            store.close()

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------

    def document_owner(self, name: str, elements: Dict[str, bytes]) -> DocumentOwner:
        """An owner on this deployment's clock with *elements* (name →
        bytes) staged. Its key is 1024-bit: era-faithful, and fast
        enough to generate one per bench document."""
        owner = DocumentOwner(name, keys=KeyPair.generate(1024), clock=self.clock)
        for element_name, content in elements.items():
            owner.put_element(PageElement(element_name, content))
        return owner

    def publish(
        self,
        owner: DocumentOwner,
        validity: float = 24 * 3600.0,
        ttl: float = 3600.0,
        per_element_expiry=None,
    ) -> PublishedObject:
        """Publish *owner*'s document: replica on the primary object
        server, naming + location records registered.
        ``per_element_expiry`` passes absolute per-element expiry
        overrides to the owner's certificate (name → timestamp)."""
        document = owner.publish(
            validity=validity, per_element_expiry=per_element_expiry
        )
        published = PublishedObject(owner=owner, document=document, name=owner.name)
        self.add_replica(published, self.host, self.site)
        self.naming.register(OidRecord(name=owner.name, oid=owner.oid, ttl=ttl))
        return published

    def add_replica(
        self,
        published: PublishedObject,
        host: str,
        site: str,
        *,
        tracer=None,
    ) -> ObjectServer:
        """Place a replica of *published* on *host*'s object server and
        register its contact address at *site*.

        The first replica on a host starts that host's object server
        (wired to ``tracer``); later ones reuse it. The
        owner pushes from ``owner_host`` (as in the paper: the owner
        workstation is not the serving host), and the address goes
        in through the location *service* surface (not the raw tree) so
        a durable deployment journals the insert.
        """
        owner = published.owner
        server = self.servers.get(host)
        if server is None:
            server = self.start_server(host, tracer=tracer)
        server.keystore.authorize(owner.name, owner.public_key)
        rpc = RpcClient(self.transport_for(self.owner_host))
        admin = AdminClient(rpc, server.endpoint, owner.keys, self.clock)
        result = admin.create_replica(published.document)
        address = ContactAddress.from_dict(result["address"])
        self.location_service.insert(owner.oid.hex, site, address.to_dict())
        published.replica_addresses[site] = address
        return server

    def install_replica(self, replica, oid_hex: str) -> None:
        """Expose *replica* — an attack behaviour, typically: anything
        with an ``endpoint``, an ``rpc_server()`` and a
        ``contact_address()`` — and list it for *oid_hex* at its host's
        site, behind the owner's back (straight into the tree)."""
        self.register(replica.endpoint, replica.rpc_server().handle_frame)
        site = self.host_sites[replica.host]
        self.location_service.tree.insert(oid_hex, site, replica.contact_address())

    def coordinator(
        self, owner: DocumentOwner, hosts: Optional[Iterable[str]] = None
    ) -> ReplicationCoordinator:
        """*owner*'s replication coordinator, pushing from
        ``owner_host``: a location client at the services site and
        an admin port on each of *hosts*' object servers (default: every
        server started so far)."""
        rpc = RpcClient(self.transport_for(self.owner_host))
        coordinator = ReplicationCoordinator(
            LocationClient(
                rpc, self.location_endpoint, origin_site=self.site, clock=self.clock
            )
        )
        for host in self.servers if hosts is None else hosts:
            server = self.servers[host]
            admin = AdminClient(rpc, server.endpoint, owner.keys, self.clock)
            coordinator.add_site(SitePort(site=server.site, admin=admin))
        return coordinator

    def publish_revocation(self, owner: DocumentOwner, reason: str) -> List[str]:
        """The compromise: *owner* revokes its object key and the
        owner-side coordinator pushes the statement to the revocation
        feed on the primary — and nowhere else, so replicas on other
        servers never hear of it. Returns the sites the statement
        reached."""
        statement = RevocationStatement.revoke_key(
            owner.keys, owner.oid, serial=1, issued_at=self.clock.now(), reason=reason
        )
        coordinator = self.coordinator(owner, [self.host])
        return coordinator.publish_revocation(statement)

    # ------------------------------------------------------------------
    # Client stacks
    # ------------------------------------------------------------------

    def client_stack(
        self,
        host_name: str,
        trust_store: Optional[TrustStore] = None,
        cache_binding: bool = True,
        location_ttl: float = 60.0,
        verification_cache: Optional["VerificationCache"] = None,
        content_cache=None,
        retry_policy: Optional[RetryPolicy] = None,
        health: Optional[ReplicaHealthTracker] = None,
        transport=None,
        max_rebinds: int = 3,
        tracer=None,
        revocation_max_staleness: Optional[float] = None,
        revocation_cursor_dir: Optional[str] = None,
        pipeline: Optional[PipelineConfig] = None,
    ) -> ClientStack:
        """Wire a full proxy stack on *host_name*, at its site, with its
        verification CPU charged to it.

        ``verification_cache`` (off by default, keeping the paper's
        every-access-pays-in-full methodology for Fig. 4) enables the
        signature-verification fast path; ``content_cache`` attaches a
        verified-element cache to the proxy. ``retry_policy`` (off by
        default, keeping single-shot RPC semantics for the figures)
        wraps the stack's RPC client in backoff retries; ``health``
        attaches a shared replica-health tracker to the retry layer and
        the binder. ``transport`` overrides the host transport (chaos
        runs interpose a :class:`~repro.net.faults.FlakyTransport`,
        attacks a :class:`~repro.attacks.mitm.MitmTransport`).
        ``tracer`` threads one access-pipeline tracer through every
        layer of the stack (proxy, session, binder, checks, RPC).
        ``revocation_max_staleness`` (off by default, keeping the
        paper's six-check pipeline for the figures) attaches a
        :class:`~repro.revocation.checker.RevocationChecker` pulling
        the primary object server's feed, enabling the seventh check;
        ``revocation_cursor_dir`` persists the checker's cursor (head +
        verified statements) so a restarted client resumes with no
        fail-open window.
        ``pipeline`` (off by default) wraps the plain RPC
        client in a :class:`~repro.proxy.pipeline.PrefetchingRpcClient`
        and installs an :class:`~repro.proxy.pipeline.AccessScheduler`
        on the proxy, enabling the batched access pipeline behind
        ``proxy.handle_many``: a cold batch is three ``call_many`` waves
        (names, locations, then each object's bind and elements), each
        replayed through the sequential code on the calling thread.
        The client stack is ``RpcClient`` → ``PrefetchingRpcClient`` →
        ``RetryingRpcClient``: a prefetch is one attempt, and only the
        replay's calls are retried and recorded by ``health``, once
        each, as ``handle``'s are.
        """
        if transport is None:
            transport = self.transport_for(host_name)
        rpc = RpcClient(transport, tracer=tracer)
        prefetcher = None
        if pipeline is not None:
            prefetcher = PrefetchingRpcClient(rpc, tracer=tracer)
            rpc = prefetcher
        if retry_policy is not None:
            rpc = RetryingRpcClient(
                rpc, retry_policy, clock=self.clock, health=health, tracer=tracer
            )
        resolver = SecureResolver(
            rpc, self.naming_endpoint, self.naming.root_key, clock=self.clock,
            iterative=self.fig3_walk,
        )
        location = LocationClient(
            rpc,
            self.location_endpoint,
            origin_site=self.host_sites[host_name],
            clock=self.clock,
            cache_ttl=location_ttl,
        )
        binder = Binder(
            resolver, location, rpc, health=health, tracer=tracer,
            fig3_walk=self.fig3_walk,
        )
        revocation = None
        if revocation_max_staleness is not None:
            cursor_store = None
            if revocation_cursor_dir is not None:
                from repro.storage.store import DurableStore

                cursor_store = DurableStore(
                    revocation_cursor_dir, sync=self.storage_sync
                )
            revocation = RevocationChecker(
                rpc,
                self.objectserver_endpoint,
                self.clock,
                max_staleness=revocation_max_staleness,
                verification_cache=verification_cache,
                content_cache=content_cache,
                store=cursor_store,
                tracer=tracer,
            )
        checker = SecurityChecker(
            self.clock_for(host_name),
            trust_store=trust_store,
            verification_cache=verification_cache,
            revocation_checker=revocation,
            tracer=tracer,
        )

        def fresh_proxy(
            cache_binding: bool = True, require_identity: bool = False
        ) -> GlobeDocProxy:
            proxy = GlobeDocProxy(
                binder, checker, rpc,
                cache_binding=cache_binding,
                require_identity=require_identity,
                content_cache=content_cache,
                max_rebinds=max_rebinds,
                tracer=tracer,
            )
            if prefetcher is not None:
                proxy.scheduler = AccessScheduler(
                    proxy, prefetcher, config=pipeline, tracer=tracer
                )
            return proxy

        proxy = fresh_proxy(cache_binding)
        return ClientStack(
            transport=transport,
            rpc=rpc,
            resolver=resolver,
            location=location,
            binder=binder,
            checker=checker,
            proxy=proxy,
            fresh_proxy=fresh_proxy,
            revocation=revocation,
            scheduler=proxy.scheduler,
        )
