"""The whole pipeline under SHA-256, reached by changing only
``hashes.SUITE`` — the one line a move off SHA-1 edits."""

from __future__ import annotations

import pytest

from repro.crypto import hashes
from repro.globedoc.element import PageElement
from repro.globedoc.owner import DocumentOwner
from repro.globedoc.urls import HybridUrl
from repro.harness.experiment import Testbed
from tests.conftest import fast_keys


@pytest.fixture(scope="module", autouse=True)
def sha256_everywhere():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hashes, "SUITE", hashes.SHA256)
        yield


@pytest.fixture(scope="module")
def testbed():
    return Testbed()


@pytest.fixture(scope="module")
def sha256_published(testbed):
    owner = DocumentOwner("vu.nl/modern", keys=fast_keys(), clock=testbed.clock)
    owner.put_element(PageElement("index.html", b"<html>sha256 world</html>"))
    return testbed.publish(owner)


class TestSha256EndToEnd:
    def test_oid_is_256_bit(self, sha256_published):
        assert sha256_published.owner.oid.bits == 256

    def test_secure_browse_by_name(self, testbed, sha256_published):
        stack = testbed.client_stack("canardo.inria.fr")
        response = stack.proxy.handle(sha256_published.url("index.html"))
        assert response.ok
        assert response.content == b"<html>sha256 world</html>"

    def test_oid_form_url_roundtrip(self, testbed, sha256_published):
        """64-hex OIDs in hybrid URLs parse under the one suite."""
        url = HybridUrl.for_oid(sha256_published.owner.oid, "index.html")
        parsed = HybridUrl.parse(url.raw)
        assert parsed.oid == sha256_published.owner.oid
        assert len(parsed.oid.hex) == 64
        stack = testbed.client_stack("sporty.cs.vu.nl")
        assert stack.proxy.handle(url.raw).ok

    def test_tamper_detected_under_sha256(self, testbed, sha256_published):
        replica = testbed.object_server.replica_for_oid(
            sha256_published.owner.oid.hex
        )
        genuine = replica.lr.state.elements["index.html"]
        replica.lr.state.elements["index.html"] = genuine.with_content(b"evil")
        try:
            stack = testbed.client_stack("canardo.inria.fr")
            response = stack.proxy.handle(sha256_published.url("index.html"))
            assert response.status == 403
            assert response.security_failure == "AuthenticityError"
        finally:
            replica.lr.state.elements["index.html"] = genuine
