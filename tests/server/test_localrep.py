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
