"""A failed element check is escaped, not locked in (DESIGN §4c).

A bound session whose element check fails drops its binding. When that
binding came from an earlier access it is re-verified once against the
same replica (the owner may have pushed a new certificate); otherwise, or
when the re-check fails too, the session fails over like a lying key
does. Both paths, on ``handle`` and on ``handle_many``, with the replica
read one call per part (the Fig. 3 walk) and in one ``globedoc.bind``.
"""

from __future__ import annotations

import pytest

from repro.attacks.malicious_server import (
    ElementSwapBehavior,
    MaliciousReplica,
    StaleReplayBehavior,
    TamperBehavior,
)
from repro.globedoc.element import PageElement
from repro.globedoc.owner import DocumentOwner
from repro.harness.experiment import Testbed
from repro.net.address import Endpoint
from repro.net.health import ReplicaHealthTracker
from repro.net.rpc import RpcClient
from repro.obs import RingBufferSink, Tracer
from repro.proxy.pipeline import PipelineConfig
from repro.server.admin import AdminClient
from tests.conftest import fast_keys

PARIS = "canardo.inria.fr"
MODES = ("handle", "handle_many")


def access(stack, url: str, mode: str):
    if mode == "handle":
        return stack.proxy.handle(url)
    (response,) = stack.proxy.handle_many([url])
    return response


def traced_stack(testbed, mode: str, **kwargs):
    ring = RingBufferSink()
    stack = testbed.client_stack(
        PARIS,
        tracer=Tracer(clock=testbed.clock, sinks=(ring,), origin="escape"),
        pipeline=PipelineConfig() if mode == "handle_many" else None,
        **kwargs,
    )
    return stack, ring


@pytest.mark.parametrize("mode", MODES)
def test_returning_client_reads_the_updated_document(mode):
    returning_client_reads_the_update(Testbed(), mode)


@pytest.mark.parametrize("mode", MODES)
def test_returning_client_reads_the_updated_document_through_one_bind(mode):
    testbed = Testbed()
    testbed.fig3_walk = False
    returning_client_reads_the_update(testbed, mode)


def returning_client_reads_the_update(testbed, mode: str) -> None:
    owner = DocumentOwner("vu.nl/blog", keys=fast_keys(), clock=testbed.clock)
    owner.put_element(PageElement("index.html", b"<html>post v1</html>"))
    published = testbed.publish(owner, validity=3600.0)
    stack, ring = traced_stack(testbed, mode)
    url = published.url("index.html")
    assert access(stack, url, mode).content == b"<html>post v1</html>"

    owner.put_element(PageElement("index.html", b"<html>post v2</html>"))
    AdminClient(
        RpcClient(testbed.network.transport_for("sporty.cs.vu.nl")),
        testbed.objectserver_endpoint,
        owner.keys,
        testbed.clock,
    ).update_replica(owner.publish(validity=3600.0))
    testbed.clock.advance(1.0)

    response = access(stack, url, mode)
    assert response.status == 200
    assert response.content == b"<html>post v2</html>"
    # Re-verified against the same replica: no failover was needed.
    assert ring.named("session.failover") == []


def liar_world(behavior_of, walk: bool = True):
    """The genuine document at VU, and a liar at the client's own site
    (found first by the expanding ring) serving the genuine key and
    certificate but a bad element — one call each on the Fig. 3 *walk*,
    else together in one ``globedoc.bind``."""
    testbed = Testbed()
    testbed.fig3_walk = walk
    owner = DocumentOwner("vu.nl/news", keys=fast_keys(), clock=testbed.clock)
    owner.put_element(PageElement("index.html", b"<html>story v1</html>"))
    owner.put_element(PageElement("retraction.html", b"<html>retraction</html>"))
    v1 = owner.publish(validity=120.0)
    owner.put_element(PageElement("index.html", b"<html>story v2</html>"))
    published = testbed.publish(owner, validity=3600.0)
    liar = MaliciousReplica(host=PARIS, document=published.document, behavior=behavior_of(v1))
    testbed.network.register(Endpoint(PARIS, "objectserver"), liar.rpc_server().handle_frame)
    testbed.location_service.tree.insert(
        published.owner.oid.hex, "root/europe/inria", liar.contact_address()
    )
    testbed.clock.advance(121.0)  # v1 lapses, v2 stays valid
    return testbed, published, liar


LIARS = {
    "tamper": (lambda v1: TamperBehavior("index.html"), "AuthenticityError"),
    "swap": (lambda v1: ElementSwapBehavior("index.html", "retraction.html"), "ConsistencyError"),
    "stale": (lambda v1: StaleReplayBehavior(v1), "FreshnessError"),
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("liar_name", sorted(LIARS))
def test_element_liar_is_escaped_through_one_failover(liar_name, mode):
    element_liar_is_escaped(liar_name, mode, walk=True)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("liar_name", sorted(LIARS))
def test_element_liar_in_a_bind_is_escaped_through_one_failover(liar_name, mode):
    element_liar_is_escaped(liar_name, mode, walk=False)


def element_liar_is_escaped(liar_name: str, mode: str, walk: bool) -> None:
    behavior_of, failed_check = LIARS[liar_name]
    testbed, published, liar = liar_world(behavior_of, walk)
    health = ReplicaHealthTracker(clock=testbed.clock)
    stack, ring = traced_stack(testbed, mode, health=health)

    response = access(stack, published.url("index.html"), mode)

    assert response.status == 200
    assert response.content == b"<html>story v2</html>"
    (failover,) = ring.named("session.failover")
    assert failover.attributes["cause"] == failed_check
    assert health.record(str(liar.contact_address())).total_failures == 1
    assert liar.requests_served > 0  # the liar was really asked first
