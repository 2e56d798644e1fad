"""The authenticated admin interface: keystore ACL, signatures,
freshness, replay defence — end to end over RPC."""

from __future__ import annotations

import pytest

from repro.errors import AccessDenied, RpcError
from repro.net.address import Endpoint
from repro.net.rpc import RpcClient, RpcServer
from repro.net.transport import LoopbackTransport
from repro.server.admin import FRESHNESS_WINDOW, AdminClient, AdminCommand, AdminVerifier
from repro.server.keystore import Keystore
from repro.server.objectserver import ObjectServer
from tests.conftest import fast_keys


@pytest.fixture
def setup(clock, make_owner):
    server = ObjectServer(host="ginger", site="root/europe/vu", clock=clock)
    owner = make_owner("vu.nl/doc", {"index.html": b"x"})
    server.keystore.authorize("owner", owner.public_key)
    transport = LoopbackTransport()
    endpoint = Endpoint(host="ginger", service="objectserver")
    transport.register(endpoint, server.rpc_server().handle_frame)
    admin = AdminClient(RpcClient(transport), endpoint, owner.keys, clock)
    return server, owner, admin, transport, endpoint, clock


class TestAdminFlow:
    def test_create_and_list(self, setup):
        server, owner, admin, *_ = setup
        doc = owner.publish(validity=60)
        result = admin.create_replica(doc)
        assert server.replica_count == 1
        listed = admin.list_replicas()
        assert listed["replicas"][0]["replica_id"] == result["replica_id"]

    def test_create_update_destroy(self, setup):
        server, owner, admin, *_ = setup
        doc = owner.publish(validity=60)
        created = admin.create_replica(doc)
        from repro.globedoc.element import PageElement

        owner.put_element(PageElement("index.html", b"v2"))
        updated = admin.update_replica(owner.publish(validity=60))
        assert updated["version"] == 2
        admin.destroy_replica(created["replica_id"])
        assert server.replica_count == 0

    def test_unauthorized_key_denied(self, setup, clock):
        server, owner, _, transport, endpoint, _ = setup
        doc = owner.publish(validity=60)
        intruder = AdminClient(RpcClient(transport), endpoint, fast_keys(), clock)
        with pytest.raises(AccessDenied):
            intruder.create_replica(doc)
        assert server.replica_count == 0

    def test_cross_entity_destroy_denied(self, setup, clock):
        server, owner, admin, transport, endpoint, _ = setup
        created = admin.create_replica(owner.publish(validity=60))
        peer = fast_keys()
        server.keystore.authorize("peer-server", peer.public)
        peer_admin = AdminClient(RpcClient(transport), endpoint, peer, clock)
        with pytest.raises(AccessDenied):
            peer_admin.destroy_replica(created["replica_id"])

    def test_unknown_op_rejected(self, setup):
        from repro.errors import ServerError

        _, _, admin, *_ = setup
        with pytest.raises(ServerError):
            admin.execute("format_disk")


class TestCommandSecurity:
    def test_signature_covers_args(self, setup, clock):
        """Altering a signed command's args must break it."""
        server, owner, _, _, _, _ = setup
        cmd = AdminCommand.create(
            owner.keys, "destroy_replica", {"replica_id": "mine"}, clock
        )
        tampered = AdminCommand(
            op=cmd.op,
            args={"replica_id": "yours"},
            issued_at=cmd.issued_at,
            nonce=cmd.nonce,
            requester_key_der=cmd.requester_key_der,
            signature=cmd.signature,
        )
        verifier = AdminVerifier(server.keystore, clock)
        with pytest.raises(AccessDenied, match="signature"):
            verifier.verify(tampered)

    def test_key_substitution_denied(self, setup, clock):
        """Signing with your key but claiming another identity fails: the
        requester key is inside the signed payload."""
        server, owner, _, _, _, _ = setup
        attacker = fast_keys()
        cmd = AdminCommand.create(attacker, "list_replicas", {}, clock)
        forged = AdminCommand(
            op=cmd.op,
            args=cmd.args,
            issued_at=cmd.issued_at,
            nonce=cmd.nonce,
            requester_key_der=owner.public_key.der,  # claim the owner's key
            signature=cmd.signature,
        )
        verifier = AdminVerifier(server.keystore, clock)
        with pytest.raises(AccessDenied):
            verifier.verify(forged)

    def test_stale_command_rejected(self, setup, clock):
        server, owner, _, _, _, _ = setup
        cmd = AdminCommand.create(owner.keys, "list_replicas", {}, clock)
        clock.advance(FRESHNESS_WINDOW + 1)
        verifier = AdminVerifier(server.keystore, clock)
        with pytest.raises(AccessDenied, match="freshness"):
            verifier.verify(cmd)

    def test_replay_rejected(self, setup, clock):
        server, owner, _, _, _, _ = setup
        cmd = AdminCommand.create(owner.keys, "list_replicas", {}, clock)
        verifier = AdminVerifier(server.keystore, clock)
        verifier.verify(cmd)
        with pytest.raises(AccessDenied, match="replay"):
            verifier.verify(cmd)

    def test_malformed_command_rejected(self):
        with pytest.raises(AccessDenied):
            AdminCommand.from_dict({"op": "x"})

    @pytest.mark.parametrize("field", ["signature", "requester_key_der"])
    def test_integer_bytes_field_denied_without_allocating(self, setup, field):
        """``from_dict`` runs before any keystore or signature check: an
        integer where bytes belong is a malformed command, not a
        ``bytes(n)`` allocation of *n* zero bytes."""
        server, owner, _, transport, endpoint, clock = setup
        wire = AdminCommand.create(owner.keys, "list_replicas", {}, clock).to_dict()
        with pytest.raises(AccessDenied, match="malformed"):
            RpcClient(transport).call(
                endpoint, "admin.execute", command={**wire, field: 2**40}
            )
