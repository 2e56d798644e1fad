"""End-to-end over the simulated WAN: the full Fig. 3 browsing flow,
multi-document sites, linked navigation, and update cycles."""

from __future__ import annotations

import pytest

from repro.crypto.identity import TrustStore
from repro.globedoc.element import PageElement
from repro.globedoc.links import extract_links
from repro.globedoc.owner import DocumentOwner
from repro.globedoc.urls import HybridUrl
from repro.harness.experiment import Testbed
from tests.conftest import fast_keys


@pytest.fixture(scope="module")
def testbed():
    return Testbed()


class TestFullBrowsingFlow:
    def test_publish_browse_update_browse(self, testbed):
        owner = DocumentOwner("vu.nl/blog", keys=fast_keys(), clock=testbed.clock)
        owner.put_element(PageElement("index.html", b"<html>post v1</html>"))
        published = testbed.publish(owner, validity=3600)

        stack = testbed.client_stack("canardo.inria.fr")
        first = stack.proxy.handle(published.url("index.html"))
        assert first.ok and first.content == b"<html>post v1</html>"

        # Owner updates; pushes the new version to the replica.
        owner.put_element(PageElement("index.html", b"<html>post v2</html>"))
        doc2 = owner.publish(validity=3600)
        from repro.net.rpc import RpcClient
        from repro.server.admin import AdminClient

        admin = AdminClient(
            RpcClient(testbed.network.transport_for("sporty.cs.vu.nl")),
            testbed.objectserver_endpoint,
            owner.keys,
            testbed.clock,
        )
        admin.update_replica(doc2)

        # The returning proxy's v1 binding fails v2's element check; it
        # re-verifies against the same replica and serves v2, as a fresh
        # proxy does.
        second = stack.proxy.handle(published.url("index.html"))
        assert second.ok and second.content == b"<html>post v2</html>"
        fresh = testbed.client_stack("canardo.inria.fr")
        third = fresh.proxy.handle(published.url("index.html"))
        assert third.ok and third.content == b"<html>post v2</html>"

    def test_navigation_across_linked_documents(self, testbed):
        """Absolute GlobeDoc hyperlinks: browse one document, follow a
        link into a second, both verified."""
        target = DocumentOwner("vu.nl/paper", keys=fast_keys(), clock=testbed.clock)
        target.put_element(PageElement("index.html", b"<html>the paper</html>"))
        target_pub = testbed.publish(target)

        link_url = HybridUrl.for_name("vu.nl/paper", "index.html").raw
        home = DocumentOwner("vu.nl/home", keys=fast_keys(), clock=testbed.clock)
        home.put_element(
            PageElement(
                "index.html", f'<html><a href="{link_url}">paper</a></html>'.encode()
            )
        )
        home_pub = testbed.publish(home)

        stack = testbed.client_stack("ensamble02.cornell.edu")
        response = stack.proxy.handle(home_pub.url("index.html"))
        assert response.ok
        links = extract_links(response.content.decode())
        followed = stack.proxy.handle(links[0].target)
        assert followed.ok
        assert followed.content == b"<html>the paper</html>"
        assert stack.proxy.session_count == 2  # one secure session per object

    def test_multielement_document_one_binding(self, testbed):
        owner = DocumentOwner("vu.nl/gallery", keys=fast_keys(), clock=testbed.clock)
        for i in range(5):
            owner.put_element(PageElement(f"img/photo{i}.png", bytes([i]) * 100))
        owner.put_element(PageElement("index.html", b"<html>gallery</html>"))
        published = testbed.publish(owner)

        stack = testbed.client_stack("canardo.inria.fr")
        transport_stats = stack.transport.stats
        for name in ["index.html"] + [f"img/photo{i}.png" for i in range(5)]:
            assert stack.proxy.handle(published.url(name)).ok
        # Binding ops (key + cert) happened once; elements fetched 6x.
        # name(3 iterative zone steps) + location(1) + key(1) + cert(1) + 6 elements = 12
        assert transport_stats.requests == 12

    def test_freshness_expiry_end_to_end(self, testbed):
        owner = DocumentOwner("vu.nl/ticker", keys=fast_keys(), clock=testbed.clock)
        owner.put_element(PageElement("index.html", b"<html>prices</html>"))
        published = testbed.publish(owner, validity=60.0)

        stack = testbed.client_stack("sporty.cs.vu.nl")
        assert stack.proxy.handle(published.url("index.html")).ok
        testbed.clock.advance(120.0)
        fresh_stack = testbed.client_stack("sporty.cs.vu.nl")
        stale = fresh_stack.proxy.handle(published.url("index.html"))
        assert stale.status == 403
        assert stale.security_failure == "FreshnessError"

    def test_identity_proof_end_to_end(self, testbed, session_ca):
        owner = DocumentOwner("vu.nl/bank", keys=fast_keys(), clock=testbed.clock)
        owner.put_element(PageElement("index.html", b"<html>account</html>"))
        owner.request_identity_certificate(session_ca)
        published = testbed.publish(owner)

        store = TrustStore()
        store.add_ca(session_ca)
        stack = testbed.client_stack("canardo.inria.fr", trust_store=store)
        stack.proxy.require_identity = True
        response = stack.proxy.handle(published.url("index.html"))
        assert response.ok
        assert response.certified_as == "vu.nl/bank"

    def test_required_identity_blocks_uncertified(self, testbed, session_ca):
        owner = DocumentOwner("vu.nl/shady", keys=fast_keys(), clock=testbed.clock)
        owner.put_element(PageElement("index.html", b"<html>shady</html>"))
        published = testbed.publish(owner)  # no identity certificate

        store = TrustStore()
        store.add_ca(session_ca)
        stack = testbed.client_stack("canardo.inria.fr", trust_store=store)
        stack.proxy.require_identity = True
        response = stack.proxy.handle(published.url("index.html"))
        assert response.status == 403
        assert response.security_failure == "AuthenticityError"
