"""Every certificate-backed type ships and stores its signed envelope
once: no field of the signed payload is repeated beside it. All but the
signed delta travel as the bytes their signer signed; the delta keeps
the payload form (DESIGN.md §6)."""

from __future__ import annotations

import pytest

from repro.crypto.identity import CertificateAuthority
from repro.globedoc.element import PageElement
from repro.globedoc.integrity import IntegrityCertificate
from repro.globedoc.oid import ObjectId
from repro.naming.dnssec import DelegationRecord, SignedOidRecord
from repro.naming.records import OidRecord
from repro.revocation.statement import RevocationStatement
from repro.util.encoding import canonical_bytes, from_canonical_bytes, from_wire, to_wire
from repro.versioning import DeltaOp, FrontierCertificate, SignedDelta, WriterGrant
from repro.versioning.delta import OP_PUT

from tests.conftest import EPOCH


def _integrity(keys, other, oid):
    elements = [PageElement(f"e{i}.png", bytes([i]) * 64) for i in range(8)]
    return IntegrityCertificate.for_elements(keys, oid.hex, elements, expires_at=1e12)


def _identity(keys, other, oid):
    return CertificateAuthority("Wire CA", keys=other).certify("vu.nl", keys.public)


def _grant(keys, other, oid):
    return WriterGrant.issue(keys, oid, "alice", other.public, granted_at=EPOCH)


def _delta(keys, other, oid):
    return SignedDelta.build(
        other, oid, "alice", 1, (), [DeltaOp(OP_PUT, "body", b"x" * 1024)],
        issued_at=EPOCH,
    )


def _frontier(keys, other, oid):
    return FrontierCertificate.build(
        keys, oid, ["ab" * 20], b"\x01" * 20, lamport=1, issued_at=EPOCH
    )


def _revocation(keys, other, oid):
    return RevocationStatement.revoke_key(keys, oid, serial=1, issued_at=EPOCH)


def _delegation(keys, other, oid):
    return DelegationRecord.issue(keys, "nl/vu", other.public)


def _oid_record(keys, other, oid):
    return SignedOidRecord.issue(keys, OidRecord(name="vu.nl/doc", oid=oid))


BUILDERS = [
    _integrity, _identity, _grant, _delta, _frontier,
    _revocation, _delegation, _oid_record,
]


def _subvalues(tree):
    """Every value nested in *tree*, itself included, in frame order."""
    yield tree
    children = tree.values() if isinstance(tree, dict) else tree if isinstance(tree, list) else ()
    for child in children:
        yield from _subvalues(child)


@pytest.mark.parametrize("build", BUILDERS, ids=lambda b: b.__name__.lstrip("_"))
def test_signed_fields_travel_once(build, shared_keys, other_keys):
    oid = ObjectId.from_public_key(shared_keys.public)
    value = build(shared_keys, other_keys, oid)
    certificate = getattr(value, "certificate", value)
    wire = value.to_dict()

    assert set(wire) == {"envelope"}
    assert type(value).from_dict(wire) == value

    # What travels is a header plus raw attachments; decoded, that is the
    # tree below with the attachments as its bytes leaves.
    frame = to_wire(wire)
    travelled = list(_subvalues(from_wire(frame)))
    attached = [v for v in travelled if isinstance(v, bytes)]
    if build is _delta:
        body = from_canonical_bytes(canonical_bytes(dict(certificate.body)))
        assert travelled.count(body) == 1
        signed = [v for v in _subvalues(body) if isinstance(v, bytes)]
        for leaf in signed:
            assert attached.count(leaf) == signed.count(leaf), "a signed bytes field is attached twice"
    else:
        # The signed bytes are one raw leaf, the payload nowhere else.
        envelope = certificate.envelope
        assert set(wire["envelope"]) == {"signed", "signature", "suite"}
        assert attached == [envelope.signature, envelope.signed_bytes]
        assert type(value).from_dict(from_wire(frame)).certificate.envelope.signed_bytes == (
            envelope.signed_bytes
        )
    # ... and nothing rides in the frame beside header, attachments, trailer.
    header_length = int.from_bytes(frame[:4], "big")
    assert len(frame) == 4 + header_length + sum(map(len, attached)) + 4
