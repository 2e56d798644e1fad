"""Object server: replica lifecycle, ownership, data surface."""

from __future__ import annotations

import pytest

from repro.errors import AccessDenied, ReplicaError
from repro.globedoc.element import PageElement
from repro.revocation.statement import RevocationStatement
from repro.server.admin import AdminCommand
from repro.server.objectserver import ObjectServer
from repro.util.encoding import from_canonical_bytes
from tests.conftest import fast_keys


@pytest.fixture
def server(clock):
    return ObjectServer(host="ginger", site="root/europe/vu", clock=clock)


@pytest.fixture
def signed_doc(make_owner):
    owner = make_owner("vu.nl/doc", {"index.html": b"content", "a.png": b"img"})
    return owner, owner.publish(validity=3600)


class TestLifecycle:
    def test_create_replica(self, server, signed_doc):
        owner, doc = signed_doc
        hosted = server.create_replica(doc, owner.public_key, "owner")
        assert server.replica_count == 1
        assert server.hosts_oid(doc.oid.hex)
        assert hosted.lr.get_element("index.html").content == b"content"

    def test_duplicate_rejected(self, server, signed_doc):
        owner, doc = signed_doc
        server.create_replica(doc, owner.public_key, "owner")
        with pytest.raises(ReplicaError):
            server.create_replica(doc, owner.public_key, "owner")

    def test_contact_address(self, server, signed_doc):
        owner, doc = signed_doc
        hosted = server.create_replica(doc, owner.public_key, "owner")
        address = server.contact_address(doc.oid.hex)
        assert address.replica_id == hosted.replica_id
        assert address.endpoint == server.endpoint

    def test_contact_address_missing(self, server):
        with pytest.raises(ReplicaError):
            server.contact_address("00" * 20)

    def test_destroy_by_creator(self, server, signed_doc):
        owner, doc = signed_doc
        hosted = server.create_replica(doc, owner.public_key, "owner")
        server.destroy_replica(hosted.replica_id, owner.public_key)
        assert server.replica_count == 0
        assert not server.hosts_oid(doc.oid.hex)

    def test_destroy_by_other_denied(self, server, signed_doc):
        """§4: each entity is allowed to manage only the replicas it
        creates — including destruction."""
        owner, doc = signed_doc
        hosted = server.create_replica(doc, owner.public_key, "owner")
        stranger = fast_keys()
        with pytest.raises(AccessDenied):
            server.destroy_replica(hosted.replica_id, stranger.public)
        assert server.replica_count == 1

    def test_destroy_missing(self, server, shared_keys):
        with pytest.raises(ReplicaError):
            server.destroy_replica("ghost", shared_keys.public)

    def test_update_replica(self, server, signed_doc, make_owner):
        owner, doc = signed_doc
        server.create_replica(doc, owner.public_key, "owner")
        owner.put_element(PageElement("index.html", b"v2"))
        doc2 = owner.publish(validity=3600)
        hosted = server.update_replica(doc2, owner.public_key)
        assert hosted.lr.get_element("index.html").content == b"v2"
        assert hosted.lr.version == 2

    def test_update_by_other_denied(self, server, signed_doc):
        owner, doc = signed_doc
        server.create_replica(doc, owner.public_key, "owner")
        with pytest.raises(AccessDenied):
            server.update_replica(doc, fast_keys().public)


class TestDataSurface:
    def test_rpc_surface(self, server, signed_doc):
        owner, doc = signed_doc
        hosted = server.create_replica(doc, owner.public_key, "owner")
        rid = hosted.replica_id
        assert bytes(server.rpc_get_public_key(rid)) == owner.public_key.der
        element = server.rpc_get_element(rid, "a.png")
        assert bytes(element["content"]) == b"img"
        cert = server.rpc_get_integrity_certificate(rid)
        assert from_canonical_bytes(cert["envelope"]["signed"])["type"] == "globedoc/integrity"

    def test_serve_counters(self, server, signed_doc):
        owner, doc = signed_doc
        hosted = server.create_replica(doc, owner.public_key, "owner")
        element = server.rpc_get_element(hosted.replica_id, "index.html")
        assert hosted.lr.serve_count == 1
        assert bytes(element["content"]) == b"content"

    def test_unknown_replica(self, server):
        with pytest.raises(ReplicaError):
            server.rpc_get_element("ghost", "x")


class TestRevocation:
    """A revoked keystore entity stops hosting: key out, replicas down,
    admin notified — and the feed's key-scope publishes trigger it."""

    def test_revoke_entity_drops_replicas(self, server, signed_doc, clock):
        owner, doc = signed_doc
        server.keystore.authorize("owner", owner.public_key)
        server.create_replica(doc, owner.public_key, "owner")
        assert server.revoke_entity(owner.public_key) is True
        assert server.replica_count == 0
        assert not server.hosts_oid(doc.oid.hex)
        assert not server.keystore.is_authorized(owner.public_key)
        notice = server.notices[-1]
        assert notice["event"] == "entity_revoked"
        assert notice["label"] == "owner"
        assert notice["at"] == clock.now()
        assert len(notice["replicas_dropped"]) == 1

    def test_revoke_entity_is_idempotent(self, server, signed_doc):
        owner, doc = signed_doc
        server.keystore.authorize("owner", owner.public_key)
        server.create_replica(doc, owner.public_key, "owner")
        server.revoke_entity(owner.public_key)
        assert server.revoke_entity(owner.public_key) is False
        assert len(server.notices) == 1

    def test_only_the_revoked_entitys_replicas_drop(
        self, server, signed_doc, make_owner
    ):
        owner, doc = signed_doc
        bystander = make_owner("vu.nl/bystander", {"b.html": b"b"})
        bystander_doc = bystander.publish(validity=3600)
        server.keystore.authorize("owner", owner.public_key)
        server.create_replica(doc, owner.public_key, "owner")
        server.create_replica(bystander_doc, bystander.public_key, "bystander")
        server.revoke_entity(owner.public_key)
        assert server.replica_count == 1
        assert server.hosts_oid(bystander_doc.oid.hex)

    def test_key_scope_publish_tears_down_hosting(self, server, signed_doc, clock):
        owner, doc = signed_doc
        server.keystore.authorize("owner", owner.public_key)
        server.create_replica(doc, owner.public_key, "owner")
        statement = RevocationStatement.revoke_key(
            owner.keys, owner.oid, serial=1, issued_at=clock.now()
        )
        answer = server.rpc_revocation_publish(statement.to_dict())
        assert answer == {"added": True, "head": 1}
        assert server.replica_count == 0
        assert not server.keystore.is_authorized(owner.public_key)
        # Clients now see the statement on the feed …
        answer = server.rpc_revocation_fetch(since=0)
        statement = RevocationStatement.from_dict(answer["statements"][0])
        assert answer["head"] == 1 and statement.oid_hex == doc.oid.hex
        # … and the fetch RPC on the replica itself fails: no stale serve.
        with pytest.raises(ReplicaError):
            server.contact_address(doc.oid.hex)

    def test_element_scope_publish_keeps_hosting(self, server, signed_doc, clock):
        """Only key-scope statements condemn the hosting entity — an
        element revocation is the clients' business."""
        owner, doc = signed_doc
        server.keystore.authorize("owner", owner.public_key)
        server.create_replica(doc, owner.public_key, "owner")
        statement = RevocationStatement.revoke_element(
            owner.keys, owner.oid, element="index.html", cert_version=1,
            serial=1, issued_at=clock.now(),
        )
        server.rpc_revocation_publish(statement.to_dict())
        assert server.replica_count == 1
        assert server.keystore.is_authorized(owner.public_key)

    def test_duplicate_publish_is_idempotent(self, server, signed_doc, clock):
        owner, doc = signed_doc
        statement = RevocationStatement.revoke_key(
            owner.keys, owner.oid, serial=1, issued_at=clock.now()
        )
        assert server.rpc_revocation_publish(statement.to_dict())["added"] is True
        assert server.rpc_revocation_publish(statement.to_dict())["added"] is False

    def test_notices_surface_in_admin_interface(self, server, signed_doc, clock):
        """The revoked owner can no longer talk to the admin surface; a
        separately-authorised administrator reads the teardown notice."""
        owner, doc = signed_doc
        admin_keys = fast_keys()
        server.keystore.authorize("site-admin", admin_keys.public)
        server.keystore.authorize("owner", owner.public_key)
        server.create_replica(doc, owner.public_key, "owner")
        server.revoke_entity(owner.public_key)
        owner_cmd = AdminCommand.create(owner.keys, "list_notices", {}, clock)
        with pytest.raises(AccessDenied):
            server.rpc_admin_execute(owner_cmd.to_dict())
        admin_cmd = AdminCommand.create(admin_keys, "list_notices", {}, clock)
        answer = server.rpc_admin_execute(admin_cmd.to_dict())
        assert answer["notices"][0]["event"] == "entity_revoked"
        assert answer["notices"][0]["label"] == "owner"
