"""Peer-server replication (§4): "such entities can be either GlobeDoc
owners (individuals) or other GlobeDoc object servers (in this way we
can support dynamic replication algorithms)."

A server holding a replica repackages its (public, owner-signed) state
and pushes it to a peer whose keystore authorises the *server's* key —
no owner involvement, no trust in either server required by clients.
"""

from __future__ import annotations

import pytest

from repro.errors import AccessDenied, ReproError
from repro.globedoc.element import PageElement
from repro.globedoc.owner import SignedDocument
from repro.harness.experiment import Testbed
from repro.net.address import ContactAddress, Endpoint
from repro.net.rpc import RpcClient
from repro.server.admin import AdminClient
from tests.conftest import fast_keys


@pytest.fixture
def world(make_owner):
    testbed = Testbed()
    owner = make_owner("vu.nl/doc", {"index.html": b"<html>peer-replicated</html>"})
    owner.clock = testbed.clock
    published = testbed.publish(owner)

    # The source server (ginger) has its own identity key pair.
    source_server_keys = fast_keys()
    # A peer server at Cornell authorises *the source server*, not the owner.
    peer = testbed.start_server("ensamble02.cornell.edu")
    peer.keystore.authorize("ginger-objectserver", source_server_keys.public)
    return testbed, owner, published, source_server_keys, peer


class TestFromState:
    def test_roundtrip_through_state(self, make_owner):
        owner = make_owner("vu.nl/x", {"a.html": b"data"})
        original = owner.publish(validity=60)
        rebuilt = SignedDocument.from_state(original.state())
        assert rebuilt.oid == original.oid
        assert rebuilt.integrity.version == original.integrity.version
        rebuilt.state().validate()

    def test_tampered_state_cannot_be_repackaged(self, make_owner):
        owner = make_owner("vu.nl/x", {"a.html": b"data"})
        state = owner.publish(validity=60).state()
        state.elements["a.html"] = PageElement("a.html", b"tampered")
        with pytest.raises(ReproError):
            SignedDocument.from_state(state)


class TestPeerReplication:
    def test_server_replicates_to_peer(self, world):
        testbed, owner, published, source_keys, peer = world
        # The source server repackages its hosted replica state…
        hosted = testbed.object_server.replica_for_oid(published.oid_hex)
        document = SignedDocument.from_state(hosted.lr.state)
        # …and pushes it to the peer under its OWN (server) identity.
        admin = AdminClient(
            RpcClient(testbed.network.transport_for("ginger.cs.vu.nl")),
            Endpoint("ensamble02.cornell.edu", "objectserver"),
            source_keys,
            testbed.clock,
        )
        result = admin.create_replica(document)
        assert peer.hosts_oid(published.oid_hex)
        # Register the new contact address; a Cornell client binds locally
        # and the content still verifies against the OWNER's signature.
        testbed.location_service.tree.insert(
            published.oid_hex,
            "root/us/cornell",
            ContactAddress.from_dict(result["address"]),
        )
        stack = testbed.client_stack("ensamble02.cornell.edu")
        response = stack.proxy.handle(published.url("index.html"))
        assert response.ok
        assert response.content == b"<html>peer-replicated</html>"
        assert peer.replica_for_oid(published.oid_hex).lr.serve_count == 1

    def test_unauthorized_server_rejected(self, world):
        testbed, owner, published, source_keys, peer = world
        hosted = testbed.object_server.replica_for_oid(published.oid_hex)
        document = SignedDocument.from_state(hosted.lr.state)
        rogue = AdminClient(
            RpcClient(testbed.network.transport_for("canardo.inria.fr")),
            Endpoint("ensamble02.cornell.edu", "objectserver"),
            fast_keys(),  # not in the peer's keystore
            testbed.clock,
        )
        with pytest.raises(AccessDenied):
            rogue.create_replica(document)

    def test_peer_replica_managed_by_creating_server(self, world):
        """The replica created by the source server belongs to *it* —
        the owner cannot destroy it (per-creator management, §4)."""
        testbed, owner, published, source_keys, peer = world
        hosted = testbed.object_server.replica_for_oid(published.oid_hex)
        document = SignedDocument.from_state(hosted.lr.state)
        admin = AdminClient(
            RpcClient(testbed.network.transport_for("ginger.cs.vu.nl")),
            Endpoint("ensamble02.cornell.edu", "objectserver"),
            source_keys,
            testbed.clock,
        )
        result = admin.create_replica(document)
        # Even if the owner were authorised on the peer, per-creator
        # management applies.
        peer.keystore.authorize("owner", owner.public_key)
        owner_admin = AdminClient(
            RpcClient(testbed.network.transport_for("sporty.cs.vu.nl")),
            Endpoint("ensamble02.cornell.edu", "objectserver"),
            owner.keys,
            testbed.clock,
        )
        with pytest.raises(AccessDenied):
            owner_admin.destroy_replica(result["replica_id"])
        admin.destroy_replica(result["replica_id"])  # the creator may
        assert not peer.hosts_oid(published.oid_hex)
