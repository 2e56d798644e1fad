"""Fuzzing the bundled replica answer: whatever a replica sends back for
``globedoc.bind`` — key, identity certificates, certificate and element
in one value — the proxy serves the genuine element or refuses, through
``handle`` and ``handle_many``, and never raises.

The answers are drawn as ``tests/naming/test_answer_fuzz.py`` draws
naming answers: values of any form, mutations of the genuine answer at
any depth, and attacks on its certificate's signed bytes. The lying
replica sits at the client's own site, so it is bound first, and the
stack has no failover: its answer alone decides the access.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.attacks.malicious_server import HonestBehavior, MaliciousReplica
from repro.deployment import ZONE_PATHS, Deployment
from repro.naming.zone import ZoneKeys
from repro.net.address import Endpoint
from repro.net.message import BATCH_OP, Request, Response
from repro.net.transport import LoopbackTransport
from repro.proxy.pipeline import PipelineConfig
from repro.sim.clock import SimClock
from tests.answerfuzz import budget, replica_answers
from tests.conftest import EPOCH, fast_keys

HOST, CLIENT = "server", "client"
ELEMENTS = {"index.html": b"<html>the genuine page</html>", "logo.bin": bytes(range(64))}


@pytest.fixture(scope="module")
def world():
    """A loopback deployment publishing one page, a replica of it at the
    client's site answering ``globedoc.bind`` with ``answer["bind"]``
    (every other op honestly), and the genuine bind answer."""
    loopback = LoopbackTransport()
    deployment = Deployment(
        SimClock(EPOCH), loopback.register, lambda host: loopback,
        HOST, {HOST: "root/s", CLIENT: "root/c"},
        zone_keys={zone: ZoneKeys(zone, fast_keys()) for zone in ZONE_PATHS},
    )
    published = deployment.publish(deployment.document_owner("vu.nl/fuzzed", ELEMENTS))
    replica = MaliciousReplica(host=CLIENT, document=published.document, behavior=HonestBehavior())
    honest = replica.rpc_server().handle_frame
    genuine = replica.rpc_bind(replica.replica_id, "index.html")
    answer = {"bind": genuine}

    def handle_frame(frame: bytes) -> bytes:
        request = Request.from_bytes(frame)
        lying = Response.success(answer["bind"])
        if request.op == "globedoc.bind":
            return lying.to_bytes()
        if request.op != BATCH_OP:
            return honest(frame)
        slots = Response.from_bytes(honest(frame)).value
        ops = [call["op"] for call in request.args["calls"]]
        return Response.success(
            [lying.to_slot() if op == "globedoc.bind" else slot for op, slot in zip(ops, slots)]
        ).to_bytes()

    deployment.register(Endpoint(CLIENT, "objectserver"), handle_frame)
    deployment.location_service.tree.insert(
        published.oid_hex, "root/c", replica.contact_address()
    )
    return deployment, published, answer, genuine


def served_or_refused(responses, urls) -> None:
    for response, url in zip(responses, urls):
        element = url.rsplit("/", 1)[-1]
        assert response.status in (200, 403, 404)
        if response.status == 200:
            assert response.content == ELEMENTS[element]
        else:
            assert not any(content in response.content for content in ELEMENTS.values())


def access_both_ways(world, bind_answer) -> None:
    deployment, published, answer, _genuine = world
    answer["bind"] = bind_answer
    urls = [published.url(name) for name in ELEMENTS]
    sequential = deployment.client_stack(CLIENT, max_rebinds=0).proxy
    served_or_refused([sequential.handle(urls[0])], urls)
    pipelined = deployment.client_stack(CLIENT, max_rebinds=0, pipeline=PipelineConfig()).proxy
    served_or_refused(pipelined.handle_many(urls), urls)


@given(data=st.data())
@budget
def test_drawn_bind_answer_is_served_or_refused(world, data):
    access_both_ways(world, data.draw(replica_answers(world[3])))


def test_genuine_bind_answer_is_served(world):
    deployment, published, answer, genuine = world
    answer["bind"] = genuine
    urls = [published.url(name) for name in ELEMENTS]
    assert deployment.client_stack(CLIENT, max_rebinds=0).proxy.handle(urls[0]).content == (
        ELEMENTS["index.html"]
    )
    pipelined = deployment.client_stack(CLIENT, max_rebinds=0, pipeline=PipelineConfig()).proxy
    assert [response.content for response in pipelined.handle_many(urls)] == list(
        ELEMENTS.values()
    )
