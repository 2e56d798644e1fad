"""Testbed wiring sanity."""

from __future__ import annotations

import pytest

from repro.globedoc.element import PageElement
from repro.globedoc.owner import DocumentOwner
from repro.harness.experiment import HOST_SITE, SERVICES_HOST, Testbed
from tests.conftest import fast_keys


@pytest.fixture(scope="module")
def testbed():
    return Testbed()


@pytest.fixture(scope="module")
def published(testbed):
    owner = DocumentOwner("vu.nl/site", keys=fast_keys(), clock=testbed.clock)
    owner.put_element(PageElement("index.html", b"<html>hello</html>"))
    return testbed.publish(owner)


class TestWiring:
    def test_host_site_covers_table1(self, testbed):
        assert set(HOST_SITE) == set(testbed.network.host_names)

    def test_publish_registers_everywhere(self, testbed, published):
        # Naming: resolvable.
        stack = testbed.client_stack("sporty.cs.vu.nl")
        result = stack.resolver.resolve("vu.nl/site")
        assert result.oid == published.owner.oid
        # Location: findable.
        lookup = stack.location.lookup(published.owner.oid)
        assert lookup.addresses
        # Object server: hosting.
        assert testbed.object_server.hosts_oid(published.oid_hex)
        # Baselines mirrored.
        assert testbed.http_server.file_count >= 1

    def test_secure_fetch_from_each_client(self, testbed, published):
        for host in ("sporty.cs.vu.nl", "canardo.inria.fr", "ensamble02.cornell.edu"):
            stack = testbed.client_stack(host)
            response = stack.proxy.handle(published.url("index.html"))
            assert response.ok, host
            assert response.content == b"<html>hello</html>"

    def test_wan_client_slower_than_lan(self, testbed, published):
        def timed_fetch(host: str) -> float:
            stack = testbed.client_stack(host)
            start = testbed.clock.now()
            stack.proxy.handle(published.url("index.html"))
            return testbed.clock.now() - start

        lan = timed_fetch("sporty.cs.vu.nl")
        paris = timed_fetch("canardo.inria.fr")
        ithaca = timed_fetch("ensamble02.cornell.edu")
        assert lan < paris < ithaca

    def test_client_overhead_advances_clock(self, testbed):
        before = testbed.clock.now()
        charged = testbed.charge_client_overhead()
        assert testbed.clock.now() == before + charged

    def test_ssl_client_works(self, testbed, published):
        client = testbed.ssl_client("canardo.inria.fr")
        body = client.get(f"{published.name}/index.html")
        assert body == b"<html>hello</html>"


class TestAddReplica:
    def test_replica_served_from_its_own_site_and_server_reused(self):
        testbed = Testbed()
        site, host = HOST_SITE["canardo.inria.fr"], "canardo.inria.fr"
        servers = []
        for name in ("vu.nl/a", "vu.nl/b"):
            owner = DocumentOwner(name, keys=fast_keys(), clock=testbed.clock)
            owner.put_element(PageElement("index.html", name.encode()))
            published = testbed.publish(owner)
            servers.append(testbed.add_replica(published, host, site))
            assert set(published.replica_addresses) == {HOST_SITE[SERVICES_HOST], site}
            assert testbed.location_service.tree.addresses_at(published.oid_hex, site)
        # One object server per host, however many documents it hosts.
        assert servers[0] is servers[1] is testbed.servers[host]
        # With ginger gone, the Paris client is served by its local replica.
        testbed.network.unregister(testbed.objectserver_endpoint)
        response = testbed.client_stack(host).proxy.handle(published.url("index.html"))
        assert response.ok and response.content == b"vu.nl/b"
