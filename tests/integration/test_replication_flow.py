"""Integration: flash crowd → dynamic replication → relief.

The paper's motivating scenario (§1) driven end to end: a document gets
popular at a remote site, the hotspot policy pushes a replica there, and
client-perceived retrieval time at that site drops.
"""

from __future__ import annotations

import pytest

from repro.globedoc.element import PageElement
from repro.globedoc.owner import DocumentOwner
from repro.harness.experiment import Testbed
from repro.replication.policy import RequestObservation
from repro.replication.strategies import HotspotReplication
from tests.conftest import fast_keys

CORNELL_HOST = "ensamble02.cornell.edu"
CORNELL_SITE = "root/us/cornell"


@pytest.fixture
def world():
    testbed = Testbed()
    owner = DocumentOwner("vu.nl/viral", keys=fast_keys(), clock=testbed.clock)
    owner.put_element(PageElement("index.html", b"<html>viral story</html>" * 40))
    published = testbed.publish(owner)  # home replica on ginger + naming/location
    # A Cornell object server, still empty, that replicas can be pushed to.
    cornell_server = testbed.start_server(CORNELL_HOST)
    policy = HotspotReplication(create_rate=1.0, destroy_rate=0.05, window=10.0)
    return testbed, published, cornell_server, policy


def cornell_fetch_time(stack, testbed, url: str) -> float:
    """One full secure access from a *warm* client (name/location caches
    populated, as for any repeat visitor) but a fresh secure session —
    the steady-state cost a crowd member pays."""
    proxy = stack.fresh_proxy()
    start = testbed.clock.now()
    response = proxy.handle(url)
    assert response.ok
    return testbed.clock.now() - start


class TestFlashCrowdRelief:
    def test_dynamic_replication_cuts_latency(self, world):
        testbed, published, cornell_server, policy = world
        url = f"globe://vu.nl/viral!/index.html"

        stack = testbed.client_stack(CORNELL_HOST, location_ttl=1.0)
        stack.proxy.handle(url)  # warm the name/location caches
        before = cornell_fetch_time(stack, testbed, url)

        # Drive the crowd into the hotspot policy, executing placement
        # actions through the authenticated admin path (the unit under
        # test is the whole policy → placement → location → client
        # pipeline).
        current_sites = ["root/europe/vu"]
        for i in range(40):
            now = testbed.clock.now()
            actions = policy.on_request(
                RequestObservation(site=CORNELL_SITE, time=now), current_sites
            )
            for action in actions:
                if action.kind.value == "create" and action.site == CORNELL_SITE:
                    testbed.add_replica(published, CORNELL_HOST, CORNELL_SITE)
                    current_sites.append(CORNELL_SITE)
            testbed.clock.advance(0.2)

        assert cornell_server.hosts_oid(published.oid_hex), "no replica pushed"

        # The burst advanced the clock past the 1 s location TTL, so the
        # warm client re-queries and finds the new local replica.
        after = cornell_fetch_time(stack, testbed, url)
        # Local replica: no transatlantic key/cert/element transfers.
        assert after < before / 2

    def test_replica_serves_identical_verified_content(self, world):
        testbed, published, cornell_server, _ = world
        testbed.add_replica(published, CORNELL_HOST, CORNELL_SITE)
        stack = testbed.client_stack(CORNELL_HOST)
        response = stack.proxy.handle("globe://vu.nl/viral!/index.html")
        assert response.ok
        assert response.content == b"<html>viral story</html>" * 40
        # And it really came from the local replica.
        assert cornell_server.replica_for_oid(published.oid_hex).lr.serve_count == 1
