"""Testbed wiring: the paper's §4 setup, ready to run.

One :class:`Testbed` assembles the whole stack on the simulated Table-1
WAN:

* on **ginger** (Amsterdam primary): the naming service (root + ``nl`` +
  ``nl/vu`` zones), the location service (three-site domain tree), a
  GlobeDoc object server, an Apache-style static server, and an
  Apache+SSL-style server;
* on each client host: a freshly wired proxy stack
  (:class:`ClientStack`) whose verification CPU is charged to that
  host.

The same wiring is reused by the figure experiments, the design-choice
comparisons, the gated benches, the attack tests (which swap in
adversarial components), and the examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.baselines.plainhttp import StaticHttpServer
from repro.baselines.ssl_channel import SslClient, SslServer
from repro.crypto.identity import CertificateAuthority, TrustStore
from repro.crypto.keys import KeyPair
from repro.crypto.verifycache import VerificationCache
from repro.globedoc.element import PageElement
from repro.globedoc.owner import DocumentOwner, SignedDocument
from repro.globedoc.urls import HybridUrl
from repro.location.service import LocationClient, LocationService
from repro.location.tree import DomainTree
from repro.naming.records import OidRecord
from repro.naming.service import NameService, SecureResolver
from repro.naming.zone import Zone
from repro.naming.dnssec import SignedZone
from repro.net.address import ContactAddress, Endpoint
from repro.net.health import ReplicaHealthTracker
from repro.net.retry import RetryingRpcClient, RetryPolicy
from repro.net.rpc import RpcClient
from repro.net.simnet import SimHost, SimNetwork
from repro.net.topology import WanTopology, paper_testbed
from repro.obs import RingBufferSink
from repro.proxy.binding import Binder
from repro.proxy.checks import SecurityChecker
from repro.proxy.clientproxy import GlobeDocProxy, ProxyResponse
from repro.proxy.metrics import AccessMetrics
from repro.proxy.pipeline import AccessScheduler, PipelineConfig, PrefetchingRpcClient
from repro.replication.coordinator import ReplicationCoordinator, SitePort
from repro.revocation.checker import RevocationChecker
from repro.revocation.statement import RevocationStatement
from repro.server.admin import AdminClient
from repro.server.objectserver import ObjectServer
from repro.sim.clock import SimClock

__all__ = ["Testbed", "ClientStack", "PublishedObject", "HOST_SITE"]

#: Site of each Table-1 host in the location-service domain tree.
HOST_SITE = {
    "ginger.cs.vu.nl": "root/europe/vu",
    "sporty.cs.vu.nl": "root/europe/vu",
    "canardo.inria.fr": "root/europe/inria",
    "ensamble02.cornell.edu": "root/us/cornell",
}

SERVICES_HOST = "ginger.cs.vu.nl"

#: Where document owners push from (the secondary VU host).
OWNER_HOST = "sporty.cs.vu.nl"


@dataclass
class PublishedObject:
    """A document placed on the testbed: owner + current signed version."""

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
    """Everything a client host needs to browse securely."""

    host: SimHost
    transport: object
    rpc: RpcClient
    resolver: SecureResolver
    location: LocationClient
    binder: Binder
    checker: SecurityChecker
    proxy: GlobeDocProxy
    revocation: Optional[RevocationChecker] = None
    scheduler: Optional[AccessScheduler] = None

    def fresh_proxy(
        self, cache_binding: bool = True, require_identity: bool = False
    ) -> GlobeDocProxy:
        """A new proxy sharing this stack's wiring (fresh sessions)."""
        return GlobeDocProxy(
            self.binder,
            self.checker,
            self.rpc,
            cache_binding=cache_binding,
            require_identity=require_identity,
        )


class Testbed:
    """The §4 experimental setup on the simulated WAN."""

    __test__ = False  # not a pytest test class, despite the name

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        start_time: float = 0.0,
        tracer=None,
        metrics=None,
        data_dir: Optional[str] = None,
        storage_sync: bool = True,
        zone_keys: Optional[Dict[str, object]] = None,
    ) -> None:
        self.topology: WanTopology = paper_testbed(
            clock if clock is not None else SimClock(start_time)
        )
        self.network: SimNetwork = self.topology.network
        self.clock: SimClock = self.topology.clock
        #: Optional service-side tracer: the object server's RPC surface
        #: records ``server.handle`` spans into it.
        self.tracer = tracer
        #: Optional shared metrics registry: threaded through the object
        #: server (and, via :meth:`client_stack`, through every client
        #: layer) so one scrape sees the whole testbed.
        self.metrics = metrics
        #: ``data_dir`` turns on durable backends: the object server
        #: journals keystore + replicas + revocation feed under it, and
        #: the naming/location services journal their published records.
        #: A second Testbed pointed at the same directory recovers them
        #: (the restart primitive of ``tests/integration/test_crash_recovery.py``).
        self.data_dir = data_dir
        self.storage_sync = storage_sync
        #: Zone signing keys to reuse (restart): the key ceremony is
        #: administrator configuration and survives restarts out of
        #: band; only the *published records* go through the durable
        #: store. Map of zone path ("", "nl", "nl/vu") → ZoneKeys.
        self._zone_keys = zone_keys if zone_keys is not None else {}
        self._build_services()
        self._published: Dict[str, PublishedObject] = {}

    # ------------------------------------------------------------------
    # Service construction (all on the Amsterdam primary)
    # ------------------------------------------------------------------

    def _build_services(self) -> None:
        import os

        # Naming: root -> nl -> nl/vu zone chain, DNSsec-signed.
        self.root_zone = SignedZone(Zone(""), keys=self._zone_keys.get(""))
        self.nl_zone = SignedZone(Zone("nl"), keys=self._zone_keys.get("nl"))
        self.vu_zone = SignedZone(Zone("nl/vu"), keys=self._zone_keys.get("nl/vu"))
        self.naming = NameService(self.root_zone)
        self.naming.add_zone(self.nl_zone)
        self.naming.add_zone(self.vu_zone)
        self.naming_store = None
        if self.data_dir is not None:
            from repro.naming.persistence import DurableNamingStore

            self.naming_store = DurableNamingStore(
                os.path.join(self.data_dir, "naming"), sync=self.storage_sync
            )
            self.naming_store.bind(self.naming)

        # Location: one domain tree with the three sites.
        tree = DomainTree()
        for site in sorted(set(HOST_SITE.values())):
            tree.add_site(site)
        self.location_service = LocationService(tree)
        self.location_store = None
        if self.data_dir is not None:
            from repro.location.persistence import DurableLocationStore

            self.location_store = DurableLocationStore(
                os.path.join(self.data_dir, "location"), sync=self.storage_sync
            )
            self.location_store.bind(self.location_service)

        # GlobeDoc object server + baselines, all on ginger.
        services_host = self.network.host(SERVICES_HOST)
        self.object_server = ObjectServer(
            host=SERVICES_HOST,
            site=HOST_SITE[SERVICES_HOST],
            clock=self.clock,
            tracer=self.tracer,
            metrics=self.metrics,
            compute_context=services_host.compute,
            data_dir=(
                os.path.join(self.data_dir, "objectserver")
                if self.data_dir is not None
                else None
            ),
            storage_sync=self.storage_sync,
        )
        #: Object servers by host; :meth:`add_replica` starts more.
        self.servers: Dict[str, ObjectServer] = {SERVICES_HOST: self.object_server}
        self.http_server = StaticHttpServer(host=SERVICES_HOST)
        self.ssl_server = SslServer(
            host=SERVICES_HOST, compute_context=services_host.compute_native
        )

        self.network.register(
            Endpoint(SERVICES_HOST, "naming"),
            self.naming.rpc_server(tracer=self.tracer).handle_frame,
        )
        self.network.register(
            Endpoint(SERVICES_HOST, "location"),
            self.location_service.rpc_server(tracer=self.tracer).handle_frame,
        )
        self.network.register(
            Endpoint(SERVICES_HOST, "objectserver"),
            self.object_server.rpc_server().handle_frame,
        )
        self.network.register(
            Endpoint(SERVICES_HOST, "http"), self.http_server.rpc_server().handle_frame
        )
        self.network.register(
            Endpoint(SERVICES_HOST, "https"), self.ssl_server.rpc_server().handle_frame
        )

    @property
    def zone_keys(self) -> Dict[str, object]:
        """The naming zone keys, for handing to a restarted testbed."""
        return {
            "": self.root_zone.keys,
            "nl": self.nl_zone.keys,
            "nl/vu": self.vu_zone.keys,
        }

    def compact_stores(self) -> None:
        """Rewrite every durable log down to its live state."""
        self.object_server.compact()
        if self.naming_store is not None:
            self.naming_store.compact()
        if self.location_store is not None:
            self.location_store.compact()

    def close_stores(self) -> None:
        """Flush and close every durable store (simulated crash or clean
        shutdown — the stores are crash-consistent either way)."""
        self.object_server.close()
        if self.naming_store is not None:
            self.naming_store.close()
        if self.location_store is not None:
            self.location_store.close()

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    @property
    def naming_endpoint(self) -> Endpoint:
        return Endpoint(SERVICES_HOST, "naming")

    @property
    def location_endpoint(self) -> Endpoint:
        return Endpoint(SERVICES_HOST, "location")

    @property
    def objectserver_endpoint(self) -> Endpoint:
        return Endpoint(SERVICES_HOST, "objectserver")

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------

    def document_owner(self, name: str, elements: Dict[str, bytes]) -> DocumentOwner:
        """An owner on this testbed's clock with *elements* (name →
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
        """Publish *owner*'s document: replica on ginger, naming +
        location records registered. Also mirrors the elements onto the
        HTTP and SSL baseline servers (same bytes, same host) so the
        Fig. 5–7 comparison is apples-to-apples. ``per_element_expiry``
        passes absolute per-element expiry overrides to the owner's
        certificate (name → timestamp)."""
        document = owner.publish(
            validity=validity, per_element_expiry=per_element_expiry
        )
        published = PublishedObject(owner=owner, document=document, name=owner.name)
        self.add_replica(published, SERVICES_HOST, HOST_SITE[SERVICES_HOST])
        self.naming.register(OidRecord(name=owner.name, oid=owner.oid, ttl=ttl))

        for name, element in document.elements.items():
            path = f"{owner.name}/{name}"
            self.http_server.put_file(path, element.content)
            self.ssl_server.put_file(path, element.content)

        self._published[owner.oid.hex] = published
        return published

    def add_replica(
        self,
        published: PublishedObject,
        host: str,
        site: str,
        *,
        metrics=None,
        tracer=None,
    ) -> ObjectServer:
        """Place a replica of *published* on *host*'s object server and
        register its contact address at *site*.

        The first replica on a host starts that host's object server
        (wired to ``metrics``/``tracer``); later ones reuse it. The
        owner pushes from the secondary VU host (as in the paper: the
        owner workstation is not the serving host), and the address goes
        in through the location *service* surface (not the raw tree) so
        a durable testbed journals the insert.
        """
        owner = published.owner
        endpoint = Endpoint(host, "objectserver")
        server = self.servers.get(host)
        if server is None:
            server = self.servers[host] = ObjectServer(
                host=host, site=site, clock=self.clock, metrics=metrics, tracer=tracer
            )
            self.network.register(endpoint, server.rpc_server().handle_frame)
        server.keystore.authorize(owner.name, owner.public_key)
        admin = AdminClient(
            RpcClient(self.network.transport_for(OWNER_HOST)),
            endpoint,
            owner.keys,
            self.clock,
        )
        result = admin.create_replica(published.document)
        address = ContactAddress.from_dict(result["address"])
        self.location_service.insert(owner.oid.hex, site, address.to_dict())
        published.replica_addresses[site] = address
        return server

    def publish_revocation(self, owner: DocumentOwner, reason: str) -> List[str]:
        """The compromise: *owner* revokes its object key and the
        owner-side coordinator pushes the statement to the revocation
        feed on ginger — and nowhere else, so replicas on other servers
        never hear of it. Returns the sites the statement reached."""
        statement = RevocationStatement.revoke_key(
            owner.keys, owner.oid, serial=1, issued_at=self.clock.now(), reason=reason
        )
        rpc = RpcClient(self.network.transport_for(OWNER_HOST))
        location = LocationClient(
            rpc, self.location_endpoint, origin_site=HOST_SITE[OWNER_HOST],
            clock=self.clock,
        )
        coordinator = ReplicationCoordinator(location, metrics=self.metrics)
        admin = AdminClient(rpc, self.objectserver_endpoint, owner.keys, self.clock)
        coordinator.add_site(SitePort(site=HOST_SITE[SERVICES_HOST], admin=admin))
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
        revocation_poll_interval: Optional[float] = None,
        revocation_cursor_dir: Optional[str] = None,
        metrics=None,
        pipeline: Optional[PipelineConfig] = None,
    ) -> ClientStack:
        """Wire a full proxy stack on *host_name*.

        ``verification_cache`` (off by default, keeping the paper's
        every-access-pays-in-full methodology for Fig. 4) enables the
        signature-verification fast path; ``content_cache`` attaches a
        verified-element cache to the proxy. ``retry_policy`` (off by
        default, keeping single-shot RPC semantics for the figures)
        wraps the stack's RPC client in backoff retries; ``health``
        attaches a shared replica-health tracker to the retry layer and
        the binder. ``transport`` overrides the host transport (chaos
        runs interpose a :class:`~repro.net.faults.FlakyTransport`).
        ``tracer`` threads one access-pipeline tracer through every
        layer of the stack (proxy, session, binder, checks, RPC).
        ``revocation_max_staleness`` (off by default, keeping the
        paper's six-check pipeline for the figures) attaches a
        :class:`~repro.revocation.checker.RevocationChecker` pulling
        the ginger object server's feed, enabling the seventh check;
        ``revocation_poll_interval`` overrides its refresh cadence;
        ``revocation_cursor_dir`` persists the checker's cursor (head +
        verified statements) so a restarted client resumes with no
        fail-open window.
        ``metrics`` (default: the testbed's registry, else disabled)
        threads one shared :class:`~repro.obs.metrics.MetricsRegistry`
        through every layer; per-client gauges are labeled with
        ``host_name``. ``pipeline`` (off by default) wraps the RPC
        client in a :class:`~repro.proxy.pipeline.PrefetchingRpcClient`
        and installs an :class:`~repro.proxy.pipeline.AccessScheduler`
        on the proxy, enabling the concurrent batched access pipeline
        behind ``proxy.handle_many``.
        """
        host = self.network.host(host_name)
        if metrics is None:
            metrics = self.metrics
        if transport is None:
            transport = self.network.transport_for(host_name)
        rpc = RpcClient(transport, tracer=tracer, metrics=metrics)
        if retry_policy is not None:
            rpc = RetryingRpcClient(
                rpc, retry_policy, clock=self.clock, health=health, tracer=tracer,
                metrics=metrics,
            )
        prefetcher = None
        if pipeline is not None:
            prefetcher = PrefetchingRpcClient(rpc, metrics=metrics, tracer=tracer)
            rpc = prefetcher
        resolver = SecureResolver(
            rpc, self.naming_endpoint, self.naming.root_key, clock=self.clock
        )
        location = LocationClient(
            rpc,
            self.location_endpoint,
            origin_site=HOST_SITE[host_name],
            clock=self.clock,
            cache_ttl=location_ttl,
        )
        binder = Binder(resolver, location, rpc, health=health, tracer=tracer)
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
                poll_interval=revocation_poll_interval,
                verification_cache=verification_cache,
                content_cache=content_cache,
                metrics=metrics,
                metrics_client=host_name,
                store=cursor_store,
                tracer=tracer,
            )
        checker = SecurityChecker(
            self.clock,
            trust_store=trust_store,
            compute_context=host.compute,
            verification_cache=verification_cache,
            revocation_checker=revocation,
            tracer=tracer,
            metrics=metrics,
        )
        proxy = GlobeDocProxy(
            binder, checker, rpc,
            cache_binding=cache_binding,
            content_cache=content_cache,
            max_rebinds=max_rebinds,
            tracer=tracer,
            metrics=metrics,
            metrics_client=host_name,
        )
        scheduler = None
        if prefetcher is not None:
            scheduler = AccessScheduler(
                proxy, prefetcher, config=pipeline, tracer=tracer, metrics=metrics
            )
            proxy.scheduler = scheduler
        return ClientStack(
            host=host,
            transport=transport,
            rpc=rpc,
            resolver=resolver,
            location=location,
            binder=binder,
            checker=checker,
            proxy=proxy,
            revocation=revocation,
            scheduler=scheduler,
        )

    def ssl_client(self, host_name: str) -> SslClient:
        """An HTTPS client on *host_name* against the ginger SSL server."""
        host = self.network.host(host_name)
        rpc = RpcClient(self.network.transport_for(host_name))
        # wget+OpenSSL is native code: CPU factor applies, JVM memory
        # pressure does not (see SimHost.compute_native).
        return SslClient(
            rpc, self.ssl_server.endpoint, compute_context=host.compute_native
        )

    def charge_client_overhead(self) -> float:
        """The fixed browser→proxy cost per access (non-security).

        Advances the clock; returns the seconds charged.
        """
        overhead = self.topology.client_overhead
        self.clock.advance(overhead)
        return overhead

    def measured_access(
        self, proxy: GlobeDocProxy, url: str, sink: RingBufferSink
    ) -> Tuple[ProxyResponse, AccessMetrics]:
        """One §4-style access and its Fig. 4 decomposition.

        *proxy* must come from a :meth:`client_stack` built with a
        ``tracer=`` that delivers to *sink*. The browser→proxy charge is
        emitted as a ``client_processing`` span next to the
        ``proxy.handle`` root, and the decomposition is derived from
        exactly the spans this access produced.
        """
        sink.clear()
        with proxy.tracer.span("client_processing"):
            self.charge_client_overhead()
        response = proxy.handle(url)
        return response, AccessMetrics.from_spans(sink.spans)
