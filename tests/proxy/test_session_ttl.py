"""Proxy session TTL: bindings follow dynamic replica placement."""

from __future__ import annotations

import pytest

from repro.globedoc.element import PageElement
from repro.globedoc.owner import DocumentOwner
from repro.harness.experiment import Testbed
from repro.globedoc.urls import HybridUrl
from repro.obs import RingBufferSink, Tracer
from repro.proxy.metrics import AccessMetrics
from repro.proxy.pipeline import PipelineConfig
from tests.conftest import fast_keys


@pytest.fixture
def world():
    testbed = Testbed()
    owner = DocumentOwner("vu.nl/ttl", keys=fast_keys(), clock=testbed.clock)
    owner.put_element(PageElement("index.html", b"<html>content</html>"))
    published = testbed.publish(owner)
    return testbed, owner, published


class TestSessionTtl:
    def test_no_ttl_means_sticky_binding(self, world):
        testbed, owner, published = world
        stack = testbed.client_stack("ensamble02.cornell.edu")
        proxy = stack.fresh_proxy()
        assert proxy.session_ttl is None
        proxy.handle(published.url("index.html"))
        testbed.clock.advance(1000.0)
        proxy.handle(published.url("index.html"))
        assert proxy.session_count == 1  # same session forever

    def test_expired_session_rebinds(self, world):
        testbed, owner, published = world
        ring = RingBufferSink()
        stack = testbed.client_stack(
            "ensamble02.cornell.edu",
            location_ttl=1.0,
            tracer=Tracer(clock=testbed.clock, sinks=(ring,)),
        )
        proxy = stack.fresh_proxy()
        proxy.session_ttl = 10.0
        first = proxy.handle(published.url("index.html"))
        assert first.ok
        testbed.clock.advance(11.0)
        ring.clear()
        second = proxy.handle(published.url("index.html"))
        assert second.ok
        # Re-binding re-fetched the key/certificate.
        assert AccessMetrics.from_spans(ring.spans).phase_time("get_public_key") > 0

    def test_rebind_discovers_new_local_replica(self, world):
        """The property the load simulator depends on: after the session
        TTL, a Cornell proxy finds a replica placed at Cornell."""
        testbed, owner, published = world
        stack = testbed.client_stack("ensamble02.cornell.edu", location_ttl=1.0)
        proxy = stack.fresh_proxy()
        proxy.session_ttl = 5.0
        proxy.handle(published.url("index.html"))  # bound to Amsterdam

        # Place a local replica (server-push path).
        cornell = testbed.add_replica(
            published, "ensamble02.cornell.edu", "root/us/cornell"
        )

        testbed.clock.advance(6.0)  # past session + location TTLs
        response = proxy.handle(published.url("index.html"))
        assert response.ok
        assert cornell.replica_for_oid(published.oid_hex).lr.serve_count == 1

    def test_pipelined_rebind_matches_sequential(self, world):
        """``handle_many`` reads the proxy's one session-TTL rule: inside
        the TTL it keeps the binding, past it it re-binds and finds the
        replica placed meanwhile, exactly as ``handle`` does."""
        testbed, owner, published = world
        url = published.url("index.html")
        sequential = testbed.client_stack("ensamble02.cornell.edu", location_ttl=1.0)
        pipelined = testbed.client_stack(
            "ensamble02.cornell.edu", location_ttl=1.0, pipeline=PipelineConfig()
        )
        access = {
            sequential.proxy: lambda: sequential.proxy.handle(url),
            pipelined.proxy: lambda: pipelined.proxy.handle_many([url])[0],
        }

        def session_of(proxy):
            return proxy.live_session(HybridUrl.parse(url))[1]

        for proxy, fetch in access.items():
            proxy.session_ttl = 5.0
            assert fetch().ok  # bound to Amsterdam
        first = {proxy: session_of(proxy) for proxy in access}
        cornell = testbed.add_replica(published, "ensamble02.cornell.edu", "root/us/cornell")
        local = cornell.replica_for_oid(published.oid_hex).lr

        testbed.clock.advance(4.0)  # inside the session TTL
        for proxy, fetch in access.items():
            assert fetch().ok
            assert session_of(proxy) is first[proxy]
        assert local.serve_count == 0

        testbed.clock.advance(2.0)  # past it
        for proxy, fetch in access.items():
            assert fetch().ok
            assert session_of(proxy) is not first[proxy]
        assert local.serve_count == 2  # both paths re-bound to Cornell
