"""End-to-end over REAL TCP sockets: the same services and proxy code,
real wall clock, localhost networking — proving the stack is not
simulator-bound."""

from __future__ import annotations

import pytest

from repro.crypto.identity import TrustStore
from repro.globedoc.element import PageElement
from repro.globedoc.owner import DocumentOwner
from repro.location.service import LocationClient, LocationService
from repro.location.tree import DomainTree
from repro.naming.dnssec import SignedZone
from repro.naming.records import OidRecord
from repro.naming.service import NameService, SecureResolver
from repro.naming.zone import Zone, ZoneKeys
from repro.net.address import Endpoint
from repro.net.rpc import RpcClient
from repro.net.tcpnet import TcpEndpointServer, TcpTransport
from repro.obs import RingBufferSink, Tracer
from repro.proxy.binding import Binder
from repro.proxy.checks import SecurityChecker
from repro.proxy.clientproxy import GlobeDocProxy
from repro.proxy.metrics import AccessMetrics
from repro.server.admin import AdminClient
from repro.server.objectserver import ObjectServer
from repro.sim.clock import RealClock
from tests.conftest import fast_keys


@pytest.fixture(scope="module")
def tcp_world():
    """All services behind one real TCP listener."""
    clock = RealClock()

    root = SignedZone(Zone(""), keys=ZoneKeys(zone="", keys=fast_keys()))
    naming = NameService(root)

    tree = DomainTree()
    tree.add_site("root/local")
    location = LocationService(tree)

    object_server = ObjectServer(host="server-host", site="root/local", clock=clock)

    listener = TcpEndpointServer()
    listener.register("naming", naming.rpc_server().handle_frame)
    listener.register("location", location.rpc_server().handle_frame)
    listener.register("objectserver", object_server.rpc_server().handle_frame)
    listener.start()

    ip, port = listener.address
    transport = TcpTransport(directory={"server-host": (ip, port)})

    yield clock, naming, location, object_server, transport
    listener.stop()


@pytest.fixture(scope="module")
def published(tcp_world):
    clock, naming, location, object_server, transport = tcp_world
    owner = DocumentOwner("vu.nl/tcpdemo", keys=fast_keys(), clock=clock)
    owner.put_element(PageElement("index.html", b"<html>over real sockets</html>"))
    owner.put_element(PageElement("style.css", b"body { color: blue }"))
    document = owner.publish(validity=3600)

    object_server.keystore.authorize("owner", owner.public_key)
    admin = AdminClient(
        RpcClient(transport),
        Endpoint("server-host", "objectserver"),
        owner.keys,
        clock,
    )
    result = admin.create_replica(document)
    from repro.net.address import ContactAddress

    location.tree.insert(
        owner.oid.hex, "root/local", ContactAddress.from_dict(result["address"])
    )
    naming.register(OidRecord(name=owner.name, oid=owner.oid))
    return owner, document


@pytest.fixture
def ring():
    return RingBufferSink()


@pytest.fixture
def proxy(tcp_world, ring):
    clock, naming, _, _, transport = tcp_world
    tracer = Tracer(clock=clock, sinks=(ring,))
    rpc = RpcClient(transport, tracer=tracer)
    resolver = SecureResolver(
        rpc, Endpoint("server-host", "naming"), naming.root_key, clock=clock
    )
    location_client = LocationClient(
        rpc, Endpoint("server-host", "location"), origin_site="root/local", clock=clock
    )
    checker = SecurityChecker(clock, tracer=tracer)
    return GlobeDocProxy(
        Binder(resolver, location_client, rpc, tracer=tracer), checker, rpc,
        tracer=tracer,
    )


class TestTcpEndToEnd:
    def test_secure_fetch(self, proxy, published, ring):
        owner, _ = published
        response = proxy.handle("globe://vu.nl/tcpdemo!/index.html")
        assert response.ok
        assert response.content == b"<html>over real sockets</html>"
        assert AccessMetrics.from_spans(ring.spans).total > 0

    def test_second_element_reuses_binding(self, proxy, published, ring):
        assert proxy.handle("globe://vu.nl/tcpdemo!/index.html").ok
        ring.clear()
        response = proxy.handle("globe://vu.nl/tcpdemo!/style.css")
        assert response.ok
        assert response.content == b"body { color: blue }"
        metrics = AccessMetrics.from_spans(ring.spans)
        assert metrics.phase_time("get_page_element") > 0
        assert metrics.phase_time("get_public_key") == 0.0

    def test_oid_form_over_tcp(self, proxy, published):
        owner, _ = published
        from repro.globedoc.urls import HybridUrl

        url = HybridUrl.for_oid(owner.oid, "index.html").raw
        assert proxy.handle(url).ok

    def test_tampered_replica_detected_over_tcp(self, tcp_world, published, proxy):
        """Server-side tampering is caught across a real network too."""
        clock, _, _, object_server, _ = tcp_world
        owner, _ = published
        replica = object_server.replica_for_oid(owner.oid.hex)
        genuine = replica.lr.state.elements["index.html"]
        replica.lr.state.elements["index.html"] = genuine.with_content(b"<html>evil</html>")
        try:
            response = proxy.handle("globe://vu.nl/tcpdemo!/index.html")
            assert response.status == 403
            assert response.security_failure == "AuthenticityError"
        finally:
            replica.lr.state.elements["index.html"] = genuine
