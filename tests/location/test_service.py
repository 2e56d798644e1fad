"""The location service over RPC, with its client cache."""

from __future__ import annotations

import pytest

from repro.errors import ObjectNotFound
from repro.globedoc.oid import ObjectId
from repro.location.service import LocationClient, LocationService
from repro.location.tree import DomainTree
from repro.net.address import ContactAddress, Endpoint
from repro.net.rpc import RpcClient
from repro.net.transport import LoopbackTransport
from repro.sim.clock import SimClock


def addr(host: str, replica: str = "r") -> ContactAddress:
    return ContactAddress(
        endpoint=Endpoint(host=host, service="objectserver"), replica_id=replica
    )


@pytest.fixture
def wired(clock, shared_keys):
    tree = DomainTree()
    for site in ("root/europe/vu", "root/us/cornell"):
        tree.add_site(site)
    service = LocationService(tree)
    transport = LoopbackTransport()
    endpoint = Endpoint(host="ls", service="location")
    transport.register(endpoint, service.rpc_server().handle_frame)
    client = LocationClient(
        RpcClient(transport),
        endpoint,
        origin_site="root/us/cornell",
        clock=clock,
        cache_ttl=30.0,
    )
    oid = ObjectId.from_public_key(shared_keys.public)
    return service, client, transport, oid


class TestLookup:
    def test_register_then_lookup(self, wired):
        service, client, _, oid = wired
        client.register_replica(oid, "root/europe/vu", addr("ginger"))
        result = client.lookup(oid)
        assert result.closest.host == "ginger"
        assert result.nodes_visited > 0
        assert not result.from_cache

    def test_missing_object(self, wired):
        _, client, _, oid = wired
        with pytest.raises(ObjectNotFound):
            client.lookup(oid)

    def test_cache_hit(self, wired):
        _, client, transport, oid = wired
        client.register_replica(oid, "root/europe/vu", addr("ginger"))
        client.lookup(oid)
        requests = transport.stats.requests
        second = client.lookup(oid)
        assert second.from_cache
        assert second.nodes_visited == 0
        assert transport.stats.requests == requests

    def test_registration_invalidates_cache(self, wired):
        _, client, _, oid = wired
        client.register_replica(oid, "root/europe/vu", addr("ginger"))
        client.lookup(oid)
        client.register_replica(oid, "root/us/cornell", addr("cornell-box"))
        result = client.lookup(oid)
        assert not result.from_cache
        # The local replica now wins for a Cornell-origin lookup.
        assert result.closest.host == "cornell-box"

    def test_unregister(self, wired):
        _, client, _, oid = wired
        a = addr("ginger")
        client.register_replica(oid, "root/europe/vu", a)
        client.unregister_replica(oid, "root/europe/vu", a)
        with pytest.raises(ObjectNotFound):
            client.lookup(oid)

    def test_explicit_invalidate(self, wired):
        _, client, transport, oid = wired
        client.register_replica(oid, "root/europe/vu", addr("ginger"))
        client.lookup(oid)
        client.invalidate(oid)
        result = client.lookup(oid)
        assert not result.from_cache

    def test_move_rpc(self, wired):
        """A migration over RPC is a ``location.delete`` then a
        ``location.insert``."""
        service, client, transport, oid = wired
        a = addr("roaming")
        client.register_replica(oid, "root/europe/vu", a)
        client.unregister_replica(oid, "root/europe/vu", a)
        client.register_replica(oid, "root/us/cornell", a)
        client.invalidate(oid)
        assert client.lookup(oid).closest.host == "roaming"
        assert service.tree.addresses_at(oid.hex, "root/europe/vu") == []

    def test_empty_result_raises_on_closest(self):
        from repro.errors import LocationError
        from repro.location.service import LookupResult

        empty = LookupResult(oid_hex="00", addresses=[], nodes_visited=1)
        with pytest.raises(LocationError):
            empty.closest
