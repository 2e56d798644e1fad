"""Per-element freshness constraints over the full stack (§5).

The design point the paper claims over r-OSFS: a single document can
carry a fast-expiring hot element (a stock ticker) next to long-lived
cold elements (the page layout) — when the ticker lapses, the layout is
still served.
"""

from __future__ import annotations

import pytest

from repro.globedoc.element import PageElement
from repro.globedoc.owner import DocumentOwner
from repro.harness.experiment import Testbed
from tests.conftest import fast_keys


@pytest.fixture
def world():
    testbed = Testbed()
    owner = DocumentOwner("vu.nl/portal", keys=fast_keys(), clock=testbed.clock)
    owner.put_element(PageElement("ticker.html", b"<html>AAPL 123.45</html>"))
    owner.put_element(PageElement("layout.css", b"body { margin: 0 }"))
    owner.put_element(PageElement("logo.png", b"\x89PNG-logo"))
    testbed.publish(
        owner,
        validity=3600.0,  # cold default: one hour
        per_element_expiry={"ticker.html": testbed.clock.now() + 60.0},  # hot: one minute
    )
    return testbed, owner


class TestPerElementFreshness:
    def test_all_fresh_initially(self, world):
        testbed, owner = world
        stack = testbed.client_stack("canardo.inria.fr")
        for element in ("ticker.html", "layout.css", "logo.png"):
            assert stack.proxy.handle(f"globe://vu.nl/portal!/{element}").ok

    def test_hot_element_expires_alone(self, world):
        """61 s in: the ticker is rejected, the layout still serves —
        impossible with a single global interval."""
        testbed, owner = world
        testbed.clock.advance(61.0)
        stack = testbed.client_stack("canardo.inria.fr")

        ticker = stack.proxy.handle("globe://vu.nl/portal!/ticker.html")
        assert ticker.status == 403
        assert ticker.security_failure == "FreshnessError"

        layout = stack.proxy.handle("globe://vu.nl/portal!/layout.css")
        assert layout.ok
        assert layout.content == b"body { margin: 0 }"
        logo = stack.proxy.handle("globe://vu.nl/portal!/logo.png")
        assert logo.ok

    def test_refresh_restores_hot_element(self, world):
        """The owner re-publishes (only the certificate changes) and the
        ticker serves again — the per-element refresh cycle."""
        testbed, owner = world
        testbed.clock.advance(61.0)

        now = testbed.clock.now()
        refreshed = owner.publish(
            validity=3600.0, per_element_expiry={"ticker.html": now + 60.0}
        )
        from repro.net.rpc import RpcClient
        from repro.server.admin import AdminClient

        admin = AdminClient(
            RpcClient(testbed.network.transport_for("sporty.cs.vu.nl")),
            testbed.objectserver_endpoint,
            owner.keys,
            testbed.clock,
        )
        admin.update_replica(refreshed)

        stack = testbed.client_stack("canardo.inria.fr")
        ticker = stack.proxy.handle("globe://vu.nl/portal!/ticker.html")
        assert ticker.ok
        assert ticker.content == b"<html>AAPL 123.45</html>"
