"""Update propagation over the full stack: the coordinator pushes a new
version to every replica, and a remote client reads it at once."""

from __future__ import annotations

from repro.globedoc.element import PageElement
from repro.globedoc.owner import DocumentOwner
from repro.harness.experiment import Testbed
from repro.naming.records import OidRecord
from repro.replication.policy import RequestObservation
from repro.replication.strategies import HotspotReplication
from tests.conftest import fast_keys

REMOTE_SITE = "root/us/cornell"
REMOTE_HOST = "ensamble02.cornell.edu"


def build():
    testbed = Testbed()
    owner = DocumentOwner("vu.nl/feed", keys=fast_keys(), clock=testbed.clock)
    owner.put_element(PageElement("index.html", b"version-1"))
    document = owner.publish(validity=600.0)
    testbed.object_server.keystore.authorize("owner", owner.public_key)
    testbed.naming.register(OidRecord(name=owner.name, oid=owner.oid))

    remote = testbed.start_server(REMOTE_HOST)
    remote.keystore.authorize("owner", owner.public_key)
    coordinator = testbed.coordinator(owner)
    # Create above one request per 1 s window, so the first observation
    # from Cornell places the replica there.
    policy = HotspotReplication(create_rate=0.5, destroy_rate=0.01, window=1.0)
    coordinator.manage(owner, document, policy, home_site="root/europe/vu")
    coordinator.observe_request(
        owner.oid, RequestObservation(site=REMOTE_SITE, time=testbed.clock.now())
    )
    assert remote.hosts_oid(owner.oid.hex)
    return testbed, owner, remote, coordinator


def fetch_version(testbed, remote) -> int:
    """What version does a Cornell client actually receive?"""
    stack = testbed.client_stack(REMOTE_HOST)
    response = stack.proxy.handle("globe://vu.nl/feed!/index.html")
    assert response.ok
    return int(response.content.decode().rpartition("-")[2])


class TestPushInvalidation:
    def test_update_visible_immediately_everywhere(self):
        testbed, owner, remote, coordinator = build()
        assert fetch_version(testbed, remote) == 1
        owner.put_element(PageElement("index.html", b"version-2"))
        coordinator.publish_update(owner.oid, owner.publish(validity=600.0))
        assert fetch_version(testbed, remote) == 2
        assert remote.replica_for_oid(owner.oid.hex).lr.version == 2
