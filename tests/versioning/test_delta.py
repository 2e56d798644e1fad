"""Signed deltas: content-addressed, writer-signed DAG nodes."""

from __future__ import annotations

import pytest

from repro.errors import CertificateError, DeltaForgeryError, DeltaReplayError
from repro.globedoc.oid import ObjectId
from repro.versioning import DeltaOp, SignedDelta
from repro.versioning.delta import OP_DELETE, OP_PUT

from tests.conftest import fast_keys


def build_delta(keys, oid, clock, lamport=1, parents=(), name="body",
                content=b"hello"):
    return SignedDelta.build(
        keys, oid, "alice", lamport, parents,
        [DeltaOp(OP_PUT, name, content)], issued_at=clock.now(),
    )


class TestBuild:
    def test_delta_id_is_content_address(self, oid, clock):
        keys = fast_keys()
        first = build_delta(keys, oid, clock)
        same = SignedDelta.from_dict(first.to_dict())
        assert first.delta_id == same.delta_id
        different = build_delta(keys, oid, clock, content=b"other")
        assert first.delta_id != different.delta_id

    def test_empty_ops_refused(self, oid, clock):
        with pytest.raises(CertificateError):
            SignedDelta.build(
                fast_keys(), oid, "alice", 1, (), [], issued_at=clock.now()
            )

    def test_nonpositive_lamport_refused(self, oid, clock):
        with pytest.raises(CertificateError):
            build_delta(fast_keys(), oid, clock, lamport=0)

    def test_order_key_total_order(self, oid, clock):
        keys = fast_keys()
        low = build_delta(keys, oid, clock, lamport=1)
        high = build_delta(keys, oid, clock, lamport=2)
        assert high.order_key > low.order_key


class TestVerify:
    def test_genuine_delta_verifies(self, oid, clock):
        build_delta(fast_keys(), oid, clock).verify(oid)

    def test_cross_object_replay_rejected(self, oid, clock):
        other = ObjectId.from_public_key(fast_keys().public)
        delta = build_delta(fast_keys(), oid, clock)
        with pytest.raises(DeltaReplayError):
            delta.verify(other)

    def test_tampered_content_rejected(self, oid, clock):
        delta = build_delta(fast_keys(), oid, clock)
        data = delta.to_dict()
        data["envelope"]["payload"]["body"]["ops"][0]["content"] = b"EVIL"
        with pytest.raises(DeltaForgeryError):
            SignedDelta.from_dict(data).verify(oid)

    def test_swapped_writer_key_rejected(self, oid, clock):
        # Re-pointing the embedded key at another identity breaks the
        # signature: the delta only ever verifies under its true signer.
        delta = build_delta(fast_keys(), oid, clock)
        data = delta.to_dict()
        data["envelope"]["payload"]["body"]["writer_key_der"] = fast_keys().public.der
        with pytest.raises(DeltaForgeryError):
            SignedDelta.from_dict(data).verify(oid)

    def test_delete_op_roundtrips(self, oid, clock):
        delta = SignedDelta.build(
            fast_keys(), oid, "alice", 1, (),
            [DeltaOp(OP_DELETE, "body")], issued_at=clock.now(),
        )
        revived = SignedDelta.from_dict(delta.to_dict()).verify(oid)
        assert revived.ops[0].op == OP_DELETE
