"""Proxy session TTL: bindings follow dynamic replica placement."""

from __future__ import annotations

import pytest

from repro.globedoc.element import PageElement
from repro.globedoc.owner import DocumentOwner
from repro.harness.experiment import Testbed
from repro.obs import RingBufferSink, Tracer
from repro.proxy.metrics import AccessMetrics
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
