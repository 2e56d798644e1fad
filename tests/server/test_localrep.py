"""Local representatives: replica LR and forwarding proxy LR parity."""

from __future__ import annotations

import pytest

from repro.errors import ConsistencyError
from repro.globedoc.document import DocumentState
from repro.net.address import Endpoint
from repro.net.rpc import RpcClient
from repro.net.transport import LoopbackTransport
from repro.server.localrep import ProxyLR, ReplicaLR
from repro.server.objectserver import ObjectServer


@pytest.fixture
def both_lrs(clock, make_owner, session_ca):
    """The same document behind a ReplicaLR and a ProxyLR."""
    owner = make_owner("vu.nl/doc", {"index.html": b"hello", "a.png": b"img"})
    owner.request_identity_certificate(session_ca)
    doc = owner.publish(validity=3600)

    replica_lr = ReplicaLR(doc.state())

    server = ObjectServer(host="ginger", site="root/europe/vu", clock=clock)
    server.keystore.authorize("owner", owner.public_key)
    hosted = server.create_replica(doc, owner.public_key, "owner")
    transport = LoopbackTransport()
    transport.register(
        Endpoint(host="ginger", service="objectserver"),
        server.rpc_server().handle_frame,
    )
    proxy_lr = ProxyLR(RpcClient(transport), server.contact_address(doc.oid.hex))
    return owner, replica_lr, proxy_lr


class TestParity:
    """Both LR flavours must be indistinguishable to callers (§2.1)."""

    def test_public_key(self, both_lrs):
        owner, replica, proxy = both_lrs
        assert replica.get_public_key() == proxy.get_public_key() == owner.public_key

    def test_elements(self, both_lrs):
        _, replica, proxy = both_lrs
        assert (
            replica.get_element("index.html").content
            == proxy.get_element("index.html").content
            == b"hello"
        )

    def test_integrity_certificate(self, both_lrs):
        owner, replica, proxy = both_lrs
        a = replica.get_integrity_certificate()
        b = proxy.get_integrity_certificate()
        assert a.entries == b.entries
        b.verify_signature(owner.public_key)

    def test_identity_certificates(self, both_lrs):
        _, replica, proxy = both_lrs
        a = replica.get_identity_certificates()
        b = proxy.get_identity_certificates()
        assert len(a) == len(b) == 1
        assert a[0].subject_name == b[0].subject_name


class TestReplicaLR:
    def test_missing_element(self, both_lrs):
        _, replica, _ = both_lrs
        with pytest.raises(ConsistencyError):
            replica.get_element("ghost.html")

    def test_missing_certificate(self, shared_keys):
        lr = ReplicaLR(DocumentState(public_key=shared_keys.public))
        with pytest.raises(ConsistencyError):
            lr.get_integrity_certificate()

    def test_update_state(self, both_lrs, make_owner):
        owner, replica, _ = both_lrs
        from repro.globedoc.element import PageElement

        owner.put_element(PageElement("index.html", b"v2"))
        replica.update_state(owner.publish(validity=60).state())
        assert replica.get_element("index.html").content == b"v2"
        assert replica.version == 2


class CountingClient(RpcClient):
    def __init__(self, transport) -> None:
        super().__init__(transport)
        self.ops = []

    def call(self, target, op, **args):
        self.ops.append(op)
        return super().call(target, op, **args)


class TestOneBindExchange:
    """A bundled ProxyLR reads every part of a cold access from one
    ``globedoc.bind`` answer, each part once, with the replica LR's
    values."""

    @pytest.fixture
    def bundled(self, both_lrs):
        owner, replica, proxy = both_lrs
        client = CountingClient(proxy.client.transport)
        return owner, replica, ProxyLR(client, proxy.address), client

    def test_every_part_from_one_call(self, bundled):
        owner, replica, lr, client = bundled
        assert lr.get_public_key("index.html") == owner.public_key
        identity = lr.get_identity_certificates()
        assert identity[0].subject_name == replica.get_identity_certificates()[0].subject_name
        assert lr.get_integrity_certificate().entries == replica.get_integrity_certificate().entries
        assert lr.get_element("index.html").content == b"hello"
        assert client.ops == ["globedoc.bind"]
        # Each part is handed out once: the next reads are calls.
        lr.get_integrity_certificate()
        lr.get_element("index.html")
        assert client.ops[1:] == ["globedoc.get_integrity_certificate", "globedoc.get_element"]

    def test_another_element_is_its_own_call(self, bundled):
        _, _, lr, client = bundled
        lr.get_public_key("index.html")
        assert lr.get_element("a.png").content == b"img"
        assert client.ops == ["globedoc.bind", "globedoc.get_element"]

    def test_missing_element_is_refused_by_its_own_call(self, bundled):
        """The bind answers ``element: None``; the LR then asks with
        ``get_element``, and the replica's refusal reaches the caller."""
        _, _, lr, client = bundled
        lr.get_public_key("ghost.html")
        lr.get_integrity_certificate()
        with pytest.raises(ConsistencyError):
            lr.get_element("ghost.html")
        assert client.ops == ["globedoc.bind", "globedoc.get_element"]

    def test_a_new_key_read_drops_what_was_parked(self, bundled):
        _, _, lr, client = bundled
        lr.get_public_key("index.html")
        lr.get_public_key()  # no element named: the walk's call
        lr.get_element("index.html")
        assert client.ops == [
            "globedoc.bind", "globedoc.get_public_key", "globedoc.get_element",
        ]
