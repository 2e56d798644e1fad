"""The authenticated admin interface: keystore ACL, signatures,
freshness, replay defence — end to end over RPC."""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto.signing import sign_payload
from repro.errors import AccessDenied, RpcError
from repro.net.address import Endpoint
from repro.net.message import Request
from repro.net.rpc import RpcClient, RpcServer
from repro.net.transport import LoopbackTransport
from repro.server.admin import FRESHNESS_WINDOW, AdminClient, AdminCommand, AdminVerifier
from repro.server.keystore import Keystore
from repro.server.objectserver import ObjectServer
from repro.util.sizes import KB
from repro.util.tally import TALLY
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

    def test_replay_set_holds_only_in_window_nonces(self, setup, clock):
        """A nonce is forgotten once its command is past the freshness
        window, where the freshness check alone refuses the replay."""
        server, owner, _, _, _, _ = setup
        verifier = AdminVerifier(server.keystore, clock)
        commands = []
        for _ in range(50):
            commands.append(AdminCommand.create(owner.keys, "list_replicas", {}, clock))
            verifier.verify(commands[-1])
            clock.advance(300.0)
        assert len(verifier._seen_nonces) <= 2
        with pytest.raises(AccessDenied, match="freshness"):
            verifier.verify(commands[0])

    def test_replay_inside_the_window_after_pruning_rejected(self, setup, clock):
        server, owner, _, _, _, _ = setup
        verifier = AdminVerifier(server.keystore, clock)
        old = AdminCommand.create(owner.keys, "list_replicas", {}, clock)
        verifier.verify(old)
        clock.advance(FRESHNESS_WINDOW + 1)
        cmd = AdminCommand.create(owner.keys, "list_replicas", {}, clock)
        verifier.verify(cmd)  # prunes the first nonce
        clock.advance(FRESHNESS_WINDOW)
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


#: A 256 KiB bytes leaf: element-sized, so the digest path is the one a
#: published document takes.
BIG_LEAF = bytes(range(256)) * KB

#: Mapping keys; the frame codec reserves two.
_keys = st.text(max_size=8).filter(lambda key: key not in ("__att__", "__b64__"))
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=16),
    st.binary(max_size=16),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_keys, children, max_size=4),
    ),
    max_leaves=12,
)
_args = st.dictionaries(_keys, _values, max_size=4).map(
    lambda args: {**args, "empty": b"", "big": BIG_LEAF}
)


def _changed(leaf):
    """*leaf* with its value changed: one byte flipped for bytes, the
    neighbouring value for a number."""
    if isinstance(leaf, bytes):
        if not leaf:
            return b"\x00"
        at = len(leaf) // 2
        return leaf[:at] + bytes([leaf[at] ^ 0x01]) + leaf[at + 1 :]
    if isinstance(leaf, bool):
        return not leaf
    if isinstance(leaf, int):
        return leaf + 1
    if isinstance(leaf, float):
        return math.nextafter(leaf, 0.0) if leaf else 5e-324
    if isinstance(leaf, str):
        return leaf + "!"
    return 0  # None


def _tampered(value):
    """Every copy of *value* with exactly one leaf changed."""
    if isinstance(value, dict):
        for key, child in value.items():
            for changed in _tampered(child):
                yield {**value, key: changed}
    elif isinstance(value, list):
        for index, child in enumerate(value):
            for changed in _tampered(child):
                yield [*value[:index], changed, *value[index + 1 :]]
    else:
        yield _changed(value)


def _recording(setup):
    """Route the server's frames through a recorder; return the list of
    request frames it sees."""
    server, _, _, transport, endpoint, _ = setup
    frames = []
    handle = server.rpc_server().handle_frame

    def recorder(frame):
        frames.append(frame)
        return handle(frame)

    transport.register(endpoint, recorder)
    return frames


class TestDigestSignature:
    """The signature covers the digest of the args' frame, which the
    server recomputes over the very args it decoded."""

    @given(args=_args)
    @settings(
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    def test_decoded_args_verify_and_every_change_is_denied(self, setup, args):
        server, _, admin, *_ = setup
        frames = _recording(setup)
        admin.execute("list_replicas", **args)  # the server verified it
        sent = Request.from_bytes(frames[-1]).args["command"]
        command = AdminCommand.from_dict(sent)
        assert command.args == args
        AdminVerifier(server.keystore, admin.clock).verify(command)
        changes = 0
        for changed in _tampered(command.args):
            tampered = AdminCommand.from_dict({**sent, "args": changed})
            with pytest.raises(AccessDenied, match="signature"):
                AdminVerifier(server.keystore, admin.clock).verify(tampered)
            changes += 1
        assert changes >= 2  # the empty and the 256 KiB leaf at least

    def test_command_signed_over_the_undigested_args_is_denied(self, setup, clock):
        """The old payload form, ``"args"`` signed in full, is not a
        second accepted form."""
        server, owner, *_ = setup
        cmd = AdminCommand.create(owner.keys, "destroy_replica", {"replica_id": "r"}, clock)
        undigested = {
            "op": cmd.op,
            "args": dict(cmd.args),
            "issued_at": cmd.issued_at,
            "nonce": cmd.nonce,
            "requester_key_der": cmd.requester_key_der,
        }
        old_form = AdminCommand(
            op=cmd.op,
            args=cmd.args,
            issued_at=cmd.issued_at,
            nonce=cmd.nonce,
            requester_key_der=cmd.requester_key_der,
            signature=sign_payload(owner.keys, undigested),
        )
        with pytest.raises(AccessDenied, match="signature"):
            AdminVerifier(server.keystore, clock).verify(old_form)

    def test_args_that_do_not_frame_again_are_denied(self, setup, clock):
        """A forged header can decode to a value ``to_wire`` refuses
        (``1e400`` parses as ``inf``): no digest, so no command."""
        server, owner, *_ = setup
        wire = AdminCommand.create(owner.keys, "list_replicas", {}, clock).to_dict()
        forged = AdminCommand.from_dict({**wire, "args": {"x": math.inf}})
        with pytest.raises(AccessDenied, match="signature"):
            AdminVerifier(server.keystore, clock).verify(forged)

    def test_publishing_encodes_no_element_byte(self, setup, make_owner, clock):
        """``create_replica`` of an 8 x 256 KiB document canonically
        encodes under 4 KiB on each side: the element bytes are framed
        and digested, never base64-encoded for a signature."""
        server, _, _, transport, endpoint, _ = setup
        owner = make_owner(
            "vu.nl/bulk",
            {f"e{i}.bin": BIG_LEAF[i:] + BIG_LEAF[:i] for i in range(8)},
        )
        server.keystore.authorize("bulk-owner", owner.public_key)
        admin = AdminClient(RpcClient(transport), endpoint, owner.keys, clock)
        document = owner.publish(validity=60)
        on_server = []
        handle = server.rpc_server().handle_frame

        def measured(frame):
            before = TALLY["encoded"]
            try:
                return handle(frame)
            finally:
                on_server.append(TALLY["encoded"] - before)

        transport.register(endpoint, measured)
        before = TALLY["encoded"]
        admin.create_replica(document)
        total = TALLY["encoded"] - before
        assert server.replica_count == 1
        assert on_server[0] < 4 * KB
        assert total - on_server[0] < 4 * KB
