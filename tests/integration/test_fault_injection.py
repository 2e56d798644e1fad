"""Resilience under infrastructure faults: flaky networks must degrade
GlobeDoc accesses into clean errors/failovers, never into accepted
wrong content."""

from __future__ import annotations

import pytest

from repro.errors import TransportError
from repro.globedoc.element import PageElement
from repro.globedoc.owner import DocumentOwner
from repro.harness.experiment import Testbed
from repro.net.faults import FaultPlan, FlakyTransport
from tests.conftest import fast_keys

GENUINE = b"<html>the one true content</html>"


@pytest.fixture(scope="module")
def world():
    testbed = Testbed()
    owner = DocumentOwner("vu.nl/solid", keys=fast_keys(), clock=testbed.clock)
    owner.put_element(PageElement("index.html", GENUINE))
    published = testbed.publish(owner)
    return testbed, published


def flaky_proxy(testbed, plan: FaultPlan):
    host = "canardo.inria.fr"
    flaky = FlakyTransport(testbed.network.transport_for(host), plan)
    return testbed.client_stack(host, transport=flaky).proxy


class TestFaultPlan:
    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_probability=1.5)
        with pytest.raises(ValueError):
            FaultPlan(corrupt_probability=-0.1)


class TestStats:
    def test_dropped_requests_are_counted(self, world):
        """Regression: a dropped request still went on the wire, so it
        must appear in the transfer stats before the error is raised."""
        testbed, _ = world
        inner = testbed.network.transport_for("canardo.inria.fr")
        flaky = FlakyTransport(inner, FaultPlan(drop_probability=1.0, seed=5))
        frame = b"never delivered"
        with pytest.raises(TransportError):
            flaky.request(testbed.naming_endpoint, frame)
        assert flaky.drops == 1
        assert flaky.stats.requests == 1
        assert flaky.stats.bytes_sent == len(frame)
        assert flaky.stats.bytes_received == 0


class TestDrops:
    def test_drops_yield_clean_errors(self, world):
        """Heavy request dropping: some accesses fail (404-class), the
        rest serve genuine bytes — never anything else."""
        testbed, published = world
        proxy = flaky_proxy(testbed, FaultPlan(drop_probability=0.3, seed=11))
        outcomes = {"ok": 0, "error": 0}
        for _ in range(30):
            proxy.drop_all_sessions()
            response = proxy.handle(published.url("index.html"))
            if response.ok:
                assert response.content == GENUINE
                outcomes["ok"] += 1
            else:
                assert response.status in (403, 404, 502)
                outcomes["error"] += 1
        assert outcomes["error"] > 0  # faults actually fired
        assert outcomes["ok"] > 0  # and the service still works sometimes

    def test_total_outage_is_denial_of_service(self, world):
        testbed, published = world
        proxy = flaky_proxy(testbed, FaultPlan(drop_probability=1.0, seed=1))
        response = proxy.handle(published.url("index.html"))
        assert not response.ok
        assert response.content != GENUINE


class TestCorruption:
    def test_corrupted_frames_never_become_content(self, world):
        """Random bit flips anywhere in the response path: every
        successful response still carries exactly the genuine bytes (a
        flip in the element body is caught by the hash check; a flip in
        framing by the codec)."""
        testbed, published = world
        proxy = flaky_proxy(testbed, FaultPlan(corrupt_probability=0.25, seed=23))
        flaky = proxy.rpc.transport
        served_wrong = 0
        for _ in range(40):
            proxy.drop_all_sessions()
            response = proxy.handle(published.url("index.html"))
            if response.ok and response.content != GENUINE:
                served_wrong += 1
        assert flaky.corruptions > 0  # faults actually fired
        assert served_wrong == 0

    def test_recovery_after_transient_faults(self, world):
        """Once the fault clears (plan seed exhausted of bad luck), the
        same proxy recovers without manual intervention."""
        testbed, published = world
        proxy = flaky_proxy(testbed, FaultPlan(drop_probability=0.9, seed=3))
        # Hammer through the bad phase.
        for _ in range(10):
            proxy.drop_all_sessions()
            proxy.handle(published.url("index.html"))
        # Disable faults in place.
        proxy.rpc.transport.plan = FaultPlan(drop_probability=0.0)
        proxy.drop_all_sessions()
        response = proxy.handle(published.url("index.html"))
        assert response.ok and response.content == GENUINE
