"""The replication coordinator: placements driven by policies, end to
end against real object servers, location service, and admin auth."""

from __future__ import annotations

import pytest

from repro.errors import ReplicationError
from repro.globedoc.element import PageElement
from repro.globedoc.owner import DocumentOwner
from repro.harness.experiment import Testbed
from repro.replication.policy import PlacementAction, RequestObservation
from repro.replication.strategies import HotspotReplication, NoReplication
from tests.conftest import fast_keys

SITES = {
    "root/europe/vu": "ginger.cs.vu.nl",
    "root/europe/inria": "canardo.inria.fr",
    "root/us/cornell": "ensamble02.cornell.edu",
}


@pytest.fixture
def world():
    """A testbed with an object server at every site and a coordinator
    authorised (via each keystore) to manage placements."""
    testbed = Testbed()
    owner = DocumentOwner("vu.nl/doc", keys=fast_keys(), clock=testbed.clock)
    owner.put_element(PageElement("index.html", b"content"))
    document = owner.publish(validity=3600)

    servers = {"root/europe/vu": testbed.object_server}
    for site, host in SITES.items():
        if site not in servers:
            servers[site] = testbed.start_server(host)
        servers[site].keystore.authorize("owner", owner.public_key)
    coordinator = testbed.coordinator(owner)

    return testbed, owner, document, servers, coordinator


def heat(testbed, coordinator, owner, *sites):
    """15 requests from each of *sites* over 5 simulated seconds: hot
    enough for a ``create_rate=1.0``, ``window=10.0`` hotspot policy."""
    for _ in range(15):
        for site in sites:
            coordinator.observe_request(
                owner.oid, RequestObservation(site=site, time=testbed.clock.now())
            )
        testbed.clock.advance(0.33)


class TestManage:
    def test_home_placement(self, world):
        testbed, owner, document, servers, coordinator = world
        managed = coordinator.manage(
            owner, document, NoReplication(), home_site="root/europe/vu"
        )
        assert managed.sites == ["root/europe/vu"]
        assert servers["root/europe/vu"].hosts_oid(owner.oid.hex)
        # Location service knows the replica.
        addresses, _ = testbed.location_service.tree.lookup(
            owner.oid.hex, "root/europe/vu"
        )
        assert len(addresses) == 1

    def test_unknown_home_site_rejected(self, world):
        _, owner, document, _, coordinator = world
        with pytest.raises(ReplicationError):
            coordinator.manage(owner, document, NoReplication(), home_site="root/mars")


class TestDynamicPlacement:
    def test_hotspot_creates_and_destroys(self, world):
        testbed, owner, document, servers, coordinator = world
        policy = HotspotReplication(
            create_rate=1.0, destroy_rate=0.1, window=10.0, max_replicas=3
        )
        managed = coordinator.manage(owner, document, policy, home_site="root/europe/vu")

        heat(testbed, coordinator, owner, "root/us/cornell")
        assert servers["root/us/cornell"].hosts_oid(owner.oid.hex)
        assert "root/us/cornell" in managed.sites
        assert managed.placements == 2
        retired = managed.addresses["root/us/cornell"]

        # Cool down: a lone request elsewhere much later.
        testbed.clock.advance(100.0)
        coordinator.observe_request(
            owner.oid,
            RequestObservation(site="root/europe/inria", time=testbed.clock.now()),
        )
        assert not servers["root/us/cornell"].hosts_oid(owner.oid.hex)
        assert "root/us/cornell" not in managed.sites
        # Location record pruned as well: exactly the registered address.
        assert (
            testbed.location_service.tree.addresses_at(
                owner.oid.hex, "root/us/cornell"
            )
            == []
        )
        remaining = testbed.location_service.lookup_all(
            owner.oid.hex, "root/us/cornell"
        )["addresses"]
        assert retired.to_dict() not in remaining
        assert [a["host"] for a in remaining] == ["ginger.cs.vu.nl"]

    def test_clients_find_new_replica(self, world):
        """After dynamic placement, a Cornell client binds locally."""
        testbed, owner, document, servers, coordinator = world
        policy = HotspotReplication(create_rate=1.0, destroy_rate=0.1, window=10.0)
        coordinator.manage(owner, document, policy, home_site="root/europe/vu")
        heat(testbed, coordinator, owner, "root/us/cornell")

        testbed.naming.register(
            __import__("repro.naming.records", fromlist=["OidRecord"]).OidRecord(
                name=owner.name, oid=owner.oid
            )
        )
        stack = testbed.client_stack("ensamble02.cornell.edu")
        response = stack.proxy.handle(f"globe://vu.nl/doc!/index.html")
        assert response.ok
        assert response.content == b"content"

    def test_destroy_home_rejected(self, world):
        _, owner, document, _, coordinator = world
        managed = coordinator.manage(
            owner, document, NoReplication(), home_site="root/europe/vu"
        )
        with pytest.raises(ReplicationError):
            coordinator._execute(managed, PlacementAction.destroy("root/europe/vu"))


class TestUpdates:
    def test_push_invalidation_updates_all_replicas(self, world):
        testbed, owner, document, servers, coordinator = world
        policy = HotspotReplication(create_rate=1.0, destroy_rate=0.1, window=10.0)
        coordinator.manage(owner, document, policy, home_site="root/europe/vu")
        heat(testbed, coordinator, owner, "root/us/cornell", "root/europe/inria")

        owner.put_element(PageElement("index.html", b"v2"))
        new_doc = owner.publish(validity=3600)
        updated = coordinator.publish_update(owner.oid, new_doc)
        assert set(updated) == set(SITES)
        for site, server in servers.items():
            replica = server.replica_for_oid(owner.oid.hex)
            assert replica.lr.get_element("index.html").content == b"v2"

    def test_stale_update_rejected(self, world):
        _, owner, document, _, coordinator = world
        coordinator.manage(owner, document, NoReplication(), home_site="root/europe/vu")
        with pytest.raises(ReplicationError):
            coordinator.publish_update(owner.oid, document)  # same version

    def test_unmanaged_document_rejected(self, world):
        _, owner, document, _, coordinator = world
        with pytest.raises(ReplicationError):
            coordinator.publish_update(owner.oid, document)
