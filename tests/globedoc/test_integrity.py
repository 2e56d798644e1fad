"""The integrity certificate: the paper's Fig. 2 artifact and its checks."""

from __future__ import annotations

import pytest

from repro.errors import (
    AuthenticityError,
    CertificateError,
    ConsistencyError,
    FreshnessError,
)
from repro.globedoc.element import PageElement
from repro.globedoc.integrity import ElementEntry, IntegrityCertificate
from repro.globedoc.oid import ObjectId
from repro.sim.clock import SimClock
from tests.conftest import EPOCH


@pytest.fixture
def elements():
    return [
        PageElement("index.html", b"<html>main</html>"),
        PageElement("img/a.png", b"\x89PNG-A"),
        PageElement("img/b.png", b"\x89PNG-B"),
    ]


@pytest.fixture
def oid_hex(shared_keys):
    return ObjectId.from_public_key(shared_keys.public).hex


@pytest.fixture
def cert(shared_keys, oid_hex, elements):
    return IntegrityCertificate.for_elements(
        shared_keys, oid_hex, elements, expires_at=EPOCH + 3600
    )


class TestBuild:
    def test_entries_per_element(self, cert, elements):
        assert cert.element_names == sorted(e.name for e in elements)
        for element in elements:
            entry = cert.entry_for(element.name)
            assert entry.content_hash == element.content_hash()
            assert entry.expires_at == EPOCH + 3600

    def test_version_and_oid(self, cert, oid_hex):
        assert cert.version == 1
        assert cert.oid_hex == oid_hex

    def test_empty_rejected(self, shared_keys, oid_hex):
        with pytest.raises(CertificateError):
            IntegrityCertificate.build(shared_keys, oid_hex, [])

    def test_duplicate_names_rejected(self, shared_keys, oid_hex):
        entry = ElementEntry(name="a", content_hash=b"\x00" * 20, expires_at=1.0)
        with pytest.raises(CertificateError):
            IntegrityCertificate.build(shared_keys, oid_hex, [entry, entry])

    def test_per_element_expiry(self, shared_keys, oid_hex, elements):
        cert = IntegrityCertificate.for_elements(
            shared_keys,
            oid_hex,
            elements,
            expires_at=EPOCH + 3600,
            per_element_expiry={"index.html": EPOCH + 60},
        )
        assert cert.entry_for("index.html").expires_at == EPOCH + 60
        assert cert.entry_for("img/a.png").expires_at == EPOCH + 3600

    def test_expiry_override_unknown_element_rejected(
        self, shared_keys, oid_hex, elements
    ):
        with pytest.raises(CertificateError):
            IntegrityCertificate.for_elements(
                shared_keys,
                oid_hex,
                elements,
                expires_at=EPOCH + 3600,
                per_element_expiry={"ghost.html": EPOCH + 60},
            )

    def test_sha256_suite(self, shared_keys, oid_hex, elements, sha256_suite):
        cert = IntegrityCertificate.for_elements(
            shared_keys, oid_hex, elements, expires_at=EPOCH + 10
        )
        assert cert.to_dict()["envelope"]["suite"] == "sha256"
        cert.verify_signature(shared_keys.public)
        assert len(cert.entry_for("index.html").content_hash) == 32


class TestSignature:
    def test_verifies_under_object_key(self, cert, shared_keys):
        cert.verify_signature(shared_keys.public)

    def test_rejects_other_key(self, cert, other_keys):
        with pytest.raises(AuthenticityError):
            cert.verify_signature(other_keys.public)

    def test_dict_roundtrip_preserves_signature(self, cert, shared_keys):
        restored = IntegrityCertificate.from_dict(cert.to_dict())
        restored.verify_signature(shared_keys.public)
        assert restored.entries == cert.entries

    def test_from_dict_rejects_wrong_type(self, shared_keys):
        from repro.crypto.certificates import Certificate

        other = Certificate.issue(shared_keys, "not/integrity", {})
        with pytest.raises(CertificateError):
            IntegrityCertificate.from_dict(other.to_dict())


class TestElementChecks:
    """The §3.2.2 client checks, one by one."""

    def test_genuine_element_passes(self, cert, elements):
        entry = cert.check_element("index.html", elements[0], SimClock(EPOCH + 10))
        assert entry.name == "index.html"

    def test_tampered_content_fails_authenticity(self, cert, elements):
        tampered = elements[0].with_content(b"<html>evil</html>")
        with pytest.raises(AuthenticityError):
            cert.check_element("index.html", tampered, SimClock(EPOCH + 10))

    def test_expired_fails_freshness(self, cert, elements):
        with pytest.raises(FreshnessError):
            cert.check_element("index.html", elements[0], SimClock(EPOCH + 3601))

    def test_exactly_at_expiry_passes(self, cert, elements):
        cert.check_element("index.html", elements[0], SimClock(EPOCH + 3600))

    def test_swapped_name_fails_consistency(self, cert, elements):
        # Server returns img/a.png for a request of index.html.
        with pytest.raises(ConsistencyError):
            cert.check_element("index.html", elements[1], SimClock(EPOCH + 10))

    def test_unknown_element_fails_consistency(self, cert):
        foreign = PageElement("not-in-cert.html", b"data")
        with pytest.raises(ConsistencyError):
            cert.check_element("not-in-cert.html", foreign, SimClock(EPOCH + 10))

    def test_entry_for_unknown_raises(self, cert):
        with pytest.raises(ConsistencyError):
            cert.entry_for("ghost.html")


class TestWireSize:
    def test_eleven_element_cert_near_2kb(self, shared_keys, oid_hex):
        """§4: the key + certificate prefetch is 'about 2KB of extra
        information' — our 11-entry certificate must be in that league."""
        elements = [PageElement(f"e{i}.png", bytes([i])) for i in range(11)]
        cert = IntegrityCertificate.for_elements(
            shared_keys, oid_hex, elements, expires_at=EPOCH + 10
        )
        assert 1000 < cert.wire_size < 4096
