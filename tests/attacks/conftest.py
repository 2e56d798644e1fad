"""Attack test wiring: a testbed where the location service can be made
to point at a malicious replica of a published document."""

from __future__ import annotations

import pytest

from repro.attacks.adversary import AttackOutcome
from repro.attacks.malicious_server import MaliciousReplica
from repro.globedoc.element import PageElement
from repro.globedoc.owner import DocumentOwner
from repro.harness.experiment import Testbed
from repro.net.address import Endpoint
from repro.obs import RingBufferSink, Tracer
from tests.conftest import fast_keys

ELEMENTS = {
    "index.html": b"<html>genuine news story</html>",
    "retraction.html": b"<html>retraction of the story</html>",
}

EVIL_HOST = "canardo.inria.fr"  # the attacker controls the Paris host


@pytest.fixture
def testbed():
    return Testbed()


@pytest.fixture
def victim(testbed):
    """A published document with a second (yet honest) owner state kept
    around so attacks can serve stale versions."""
    owner = DocumentOwner("vu.nl/news", keys=fast_keys(), clock=testbed.clock)
    for name, content in ELEMENTS.items():
        owner.put_element(PageElement(name, content))
    published = testbed.publish(owner, validity=3600)
    return published


@pytest.fixture
def deploy_malicious(testbed, victim):
    """Factory: host a MaliciousReplica for the victim document at the
    attacker host and register it in the location service at the
    client's own site (so it is found *first* in the expanding ring)."""

    def deploy(behavior, site: str = "root/europe/inria") -> MaliciousReplica:
        replica = MaliciousReplica(
            host=EVIL_HOST, document=victim.document, behavior=behavior
        )
        testbed.network.register(
            Endpoint(EVIL_HOST, "objectserver"), replica.rpc_server().handle_frame
        )
        testbed.location_service.tree.insert(
            victim.owner.oid.hex, site, replica.contact_address()
        )
        return replica

    return deploy


@pytest.fixture
def paris_stack(testbed, victim):
    """A client at the attacker's site — its expanding-ring lookup finds
    the malicious replica before the genuine Amsterdam one."""
    return testbed.client_stack(EVIL_HOST)


@pytest.fixture
def rejecting_stack(testbed, victim):
    """A Paris client that never fails over, so a caught lie shows as the
    rejection itself."""
    return testbed.client_stack(EVIL_HOST, max_rebinds=0)


def escaping_stack(testbed):
    """A Paris client with the default rebinds, and the sink its spans
    land in: a caught lie is escaped through a failover."""
    ring = RingBufferSink()
    tracer = Tracer(clock=testbed.clock, sinks=(ring,), origin="attack")
    return testbed.client_stack(EVIL_HOST, tracer=tracer), ring


def assert_escaped(probe, ring, cause: str) -> None:
    """The genuine bytes, through one failover caused by *cause*."""
    assert probe.outcome is AttackOutcome.SERVED_GENUINE
    (failover,) = ring.named("session.failover")
    assert failover.attributes["cause"] == cause
