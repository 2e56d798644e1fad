"""End-to-end over REAL TCP sockets: the same services and proxy code,
real wall clock, localhost networking — proving the stack is not
simulator-bound."""

from __future__ import annotations

import pytest

from repro.deployment import ZONE_PATHS, Deployment
from repro.globedoc.element import PageElement
from repro.globedoc.owner import DocumentOwner
from repro.naming.zone import ZoneKeys
from repro.net.tcpnet import TcpEndpointServer, TcpTransport
from repro.obs import RingBufferSink, Tracer
from repro.proxy.metrics import AccessMetrics
from repro.sim.clock import RealClock
from tests.conftest import fast_keys


@pytest.fixture(scope="module")
def tcp_world():
    """All services behind one real TCP listener."""
    with TcpEndpointServer() as listener:
        transport = TcpTransport(directory={"server-host": listener.address})
        yield Deployment(
            RealClock(),
            lambda endpoint, handler: listener.register(endpoint.service, handler),
            lambda host: transport,
            "server-host",
            {"server-host": "root/local", "client-host": "root/local"},
            zone_keys={z: ZoneKeys(z, fast_keys()) for z in ZONE_PATHS},
        )
        transport.close()


@pytest.fixture(scope="module")
def published(tcp_world):
    owner = DocumentOwner("vu.nl/tcpdemo", keys=fast_keys(), clock=tcp_world.clock)
    owner.put_element(PageElement("index.html", b"<html>over real sockets</html>"))
    owner.put_element(PageElement("style.css", b"body { color: blue }"))
    return owner, tcp_world.publish(owner, validity=3600).document


@pytest.fixture
def ring():
    return RingBufferSink()


@pytest.fixture
def proxy(tcp_world, ring):
    tracer = Tracer(clock=tcp_world.clock, sinks=(ring,))
    return tcp_world.client_stack("client-host", tracer=tracer).proxy


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
        owner, _ = published
        replica = tcp_world.object_server.replica_for_oid(owner.oid.hex)
        genuine = replica.lr.state.elements["index.html"]
        replica.lr.state.elements["index.html"] = genuine.with_content(b"<html>evil</html>")
        try:
            response = proxy.handle("globe://vu.nl/tcpdemo!/index.html")
            assert response.status == 403
            assert response.security_failure == "AuthenticityError"
        finally:
            replica.lr.state.elements["index.html"] = genuine
