"""Man-in-the-middle (§3.2.1): in-flight tampering is caught by GlobeDoc
but sails through plain HTTP — the paper's opening vulnerability."""

from __future__ import annotations

import pytest

from repro.attacks.mitm import MitmTransport
from repro.baselines.plainhttp import PlainHttpClient
from tests.attacks.conftest import ELEMENTS

CLIENT_HOST = "canardo.inria.fr"


def mitm_client(testbed, rewrite):
    """A Paris client stack whose transport passes through a MITM."""
    mitm = MitmTransport(testbed.network.transport_for(CLIENT_HOST), rewrite)
    return testbed.client_stack(CLIENT_HOST, transport=mitm), mitm


@pytest.fixture
def mitm_stack(testbed, victim):
    stack, mitm = mitm_client(
        testbed, MitmTransport.content_injector(b"<!-- injected -->")
    )
    return stack.proxy, mitm, stack.rpc


class TestMitm:
    def test_globedoc_detects_injection(self, mitm_stack, victim):
        proxy, mitm, _ = mitm_stack
        response = proxy.handle(victim.url("index.html"))
        assert response.status == 403
        assert response.security_failure == "AuthenticityError"
        assert mitm.intercepted > 0

    def test_plain_http_accepts_injection(self, mitm_stack, testbed, victim):
        """The same attack against the HTTP baseline succeeds silently —
        the vulnerability GlobeDoc exists to close."""
        _, mitm, rpc = mitm_stack
        client = PlainHttpClient(rpc, testbed.http_server.endpoint)
        body = client.get(f"{victim.name}/index.html")
        assert body == ELEMENTS["index.html"] + b"<!-- injected -->"

    def test_passive_mitm_changes_nothing(self, testbed, victim):
        stack, mitm = mitm_client(testbed, None)
        response = stack.proxy.handle(victim.url("index.html"))
        assert response.ok
        assert response.content == ELEMENTS["index.html"]
        assert mitm.intercepted == 0

    def test_replayed_frame_degrades_to_error_not_content(self, testbed, victim):
        """Replacing responses with canned garbage causes failures, never
        acceptance of attacker content."""
        stack, _ = mitm_client(testbed, lambda endpoint, frame: b"\x00garbage")
        response = stack.proxy.handle(victim.url("index.html"))
        assert not response.ok
