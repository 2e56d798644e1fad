"""The proxy facade: URL handling, sessions, passthrough, failure pages."""

from __future__ import annotations

import pytest

from repro.globedoc.urls import HybridUrl
from repro.proxy.metrics import AccessMetrics
from tests.proxy.conftest import ELEMENTS


class TestGlobedocRequests:
    def test_name_form(self, stack, published, ring):
        response = stack.proxy.handle(published.url("index.html"))
        assert response.ok
        assert response.content == ELEMENTS["index.html"]
        assert response.content_type == "text/html"
        assert AccessMetrics.from_spans(ring.spans).security_time > 0

    def test_oid_form(self, stack, published):
        url = HybridUrl.for_oid(published.owner.oid, "img/logo.png").raw
        response = stack.proxy.handle(url)
        assert response.ok
        assert response.content == ELEMENTS["img/logo.png"]
        assert response.content_type == "image/png"

    def test_session_reuse_across_requests(self, stack, published):
        proxy = stack.fresh_proxy()
        proxy.handle(published.url("index.html"))
        assert proxy.session_count == 1
        proxy.handle(published.url("img/logo.png"))
        assert proxy.session_count == 1  # same object, same session

    def test_unknown_name_is_404(self, stack):
        response = stack.proxy.handle("globe://ghost.example/index.html")
        assert response.status == 404
        assert b"Not Found" in response.content or b"Document Not Found" in response.content

    def test_unknown_element_is_failure(self, stack, published):
        response = stack.proxy.handle(published.url("ghost.html"))
        assert response.status in (403, 404)
        assert not response.ok

    def test_malformed_url_is_400(self, stack):
        assert stack.proxy.handle("ftp://weird").status == 400

    def test_request_counters(self, stack, published):
        proxy = stack.fresh_proxy()
        proxy.handle(published.url("index.html"))
        proxy.handle("globe://ghost.example/index.html")
        assert proxy.request_count == 2
        assert proxy.failure_count == 1

    def test_drop_sessions(self, stack, published):
        proxy = stack.fresh_proxy()
        proxy.handle(published.url("index.html"))
        proxy.drop_all_sessions()
        assert proxy.session_count == 0


class TestPassthrough:
    def test_plain_http_forwarded(self, testbed, stack, published, ring):
        """§4: the proxy transparently handles regular HTTP requests."""
        response = stack.proxy.handle(
            f"http://ginger.cs.vu.nl/{published.name}/index.html"
        )
        assert response.ok
        assert response.content == ELEMENTS["index.html"]
        # No security pipeline ran: one plain call, no access phases.
        assert [span.name for span in ring.spans] == ["rpc.call"]
        assert AccessMetrics.from_spans(ring.spans).phases == ()

    def test_passthrough_404(self, stack):
        response = stack.proxy.handle("http://ginger.cs.vu.nl/ghost")
        assert response.status == 404

    def test_passthrough_unreachable_host(self, stack):
        response = stack.proxy.handle("http://nowhere.example/x")
        assert response.status == 502


class TestIdentityDisplay:
    def test_certified_as(self, testbed, session_ca):
        """§3.1.2: the proxy displays the certified name when the object
        presents a proof from a CA in the user's trust store."""
        from repro.crypto.identity import TrustStore
        from repro.globedoc.element import PageElement
        from repro.globedoc.owner import DocumentOwner
        from tests.conftest import fast_keys

        owner = DocumentOwner("vu.nl/shop", keys=fast_keys(), clock=testbed.clock)
        owner.put_element(PageElement("index.html", b"<html>buy</html>"))
        owner.request_identity_certificate(session_ca)
        published = testbed.publish(owner)

        store = TrustStore()
        store.add_ca(session_ca)
        stack = testbed.client_stack("sporty.cs.vu.nl", trust_store=store)
        response = stack.proxy.handle(published.url("index.html"))
        assert response.ok
        assert response.certified_as == "vu.nl/shop"

    def test_no_trust_store_no_certified_name(self, stack, published):
        response = stack.proxy.handle(published.url("index.html"))
        assert response.certified_as is None
