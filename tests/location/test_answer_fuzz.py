"""Fuzzing the location answers: whatever a lying location service sends,
the client returns well-typed contact addresses or raises a
:class:`~repro.errors.LocationError`, and the proxy answers with a
response — sequentially and pipelined — never an exception.

The location service is untrusted by design (its addresses are hints,
checked against the self-certifying OID), so its answers are drawn the
way ``tests/naming/test_answer_fuzz.py`` draws naming answers:
JSON-shaped values of any form, and mutations of a genuine answer. A
stub serves them to ``location.lookup`` (the bind) and to
``location.lookup_all`` (the widened lookup of a failover), and as the
counts ``location.insert``/``location.delete`` return.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.deployment import ZONE_PATHS, Deployment
from repro.errors import LocationError
from repro.naming.zone import ZoneKeys
from repro.net.address import ContactAddress, Endpoint
from repro.net.rpc import RpcServer, rpc_method
from repro.net.transport import LoopbackTransport
from repro.proxy.pipeline import PipelineConfig
from repro.sim.clock import SimClock
from tests.answerfuzz import budget, json_values, mutation
from tests.conftest import EPOCH, fast_keys

HOST, SITE, NAME = "ginger.cs.vu.nl", "root/europe/vu", "vu.nl/doc"
CONTENT = b"<html>the genuine page</html>"

#: A well-formed address nobody listens at: binding to it fails, so the
#: session fails over to the widened lookup.
DEAD = ContactAddress(Endpoint("dead.example", "objectserver")).to_dict()

#: The shapes that escaped ``LocationClient.lookup`` as exceptions.
ESCAPED = {
    "addresses-int": {"addresses": 5, "nodes_visited": 1},
    "list": ["x"],
    "address-int": {"addresses": [7], "nodes_visited": 1},
    "address-empty": {"addresses": [{}], "nodes_visited": 1},
    "visited-huge": {"addresses": [DEAD], "nodes_visited": "9" * 5000},
    "no-addresses": {"nodes_visited": 1},
}


class StubLocationService:
    """Answers every query for any OID with a fixed answer per op."""

    def __init__(self, lookup, lookup_all=None, count=None) -> None:
        self.answers = {"lookup": lookup, "lookup_all": lookup_all, "count": count}

    @rpc_method("location.lookup")
    def lookup(self, oid: str, origin_site: str):
        return self.answers["lookup"]

    @rpc_method("location.lookup_all")
    def lookup_all(self, oid: str, origin_site: str):
        return self.answers["lookup_all"]

    @rpc_method("location.insert")
    def insert(self, oid: str, site: str, address):
        return self.answers["count"]

    @rpc_method("location.delete")
    def delete(self, oid: str, site: str, address):
        return self.answers["count"]

    def rpc_server(self) -> RpcServer:
        server = RpcServer(name="location")
        server.register_object(self)
        return server


@pytest.fixture(scope="module")
def world():
    """A loopback deployment with one published page, its genuine
    ``lookup``/``lookup_all`` answers, and ``serve(stub)``: put a stub in
    its location service's place."""
    keys = {zone: ZoneKeys(zone, fast_keys()) for zone in ZONE_PATHS}
    loopback = LoopbackTransport()
    deployment = Deployment(
        SimClock(EPOCH), loopback.register, lambda host: loopback,
        HOST, {HOST: SITE}, zone_keys=keys,
    )
    published = deployment.publish(deployment.document_owner(NAME, {"index.html": CONTENT}))
    oid_hex = published.owner.oid.hex
    genuine = {
        "lookup": deployment.location_service.lookup(oid_hex, SITE),
        "lookup_all": deployment.location_service.lookup_all(oid_hex, SITE),
    }

    def serve(stub: StubLocationService) -> None:
        deployment.register(deployment.location_endpoint, stub.rpc_server().handle_frame)

    return deployment, published, genuine, serve


def _stub_for(world, op: str, answer) -> StubLocationService:
    """*answer* at *op*; the other lookup op answers so that *op* is
    reached: a bind to a dead address before a fuzzed ``lookup_all``,
    the genuine widened answer after a fuzzed ``lookup``."""
    genuine = world[2]
    if op == "lookup":
        return StubLocationService(answer, lookup_all=genuine["lookup_all"])
    dead = {"oid": genuine["lookup"]["oid"], "addresses": [DEAD], "nodes_visited": 1}
    return StubLocationService(dead, lookup_all=answer)


def _looks_up_or_refuses(world, op: str, answer) -> None:
    deployment, published, _, serve = world
    serve(StubLocationService(answer, lookup_all=answer))
    location = deployment.client_stack(HOST).location
    try:
        result = location.lookup(published.owner.oid, widen=op == "lookup_all")
    except LocationError:
        return
    assert all(isinstance(a, ContactAddress) for a in result.addresses)
    assert isinstance(result.nodes_visited, int)


def _proxy_answers(world, op: str, answer, pipelined: bool):
    deployment, published, _, serve = world
    serve(_stub_for(world, op, answer))
    stack = deployment.client_stack(HOST, pipeline=PipelineConfig() if pipelined else None)
    url = published.url("index.html")
    if pipelined:
        (response,) = stack.proxy.handle_many([url])
    else:
        response = stack.proxy.handle(url)
    assert response.status in (200, 404)
    if response.status == 200:
        assert response.content == CONTENT
    return response


OPS = pytest.mark.parametrize("op", ["lookup", "lookup_all"])
MODES = pytest.mark.parametrize("pipelined", [False, True], ids=["handle", "handle_many"])


def _answers(world, op: str):
    return st.one_of(json_values, mutation(world[2][op]))


@OPS
class TestClientFuzz:
    @given(data=st.data())
    @budget
    def test_generated_or_mutated_answer(self, world, op, data):
        _looks_up_or_refuses(world, op, data.draw(_answers(world, op)))

    @pytest.mark.parametrize("shape", ESCAPED)
    def test_escaped_shape_is_a_location_error(self, world, op, shape):
        deployment, published, _, serve = world
        serve(StubLocationService(ESCAPED[shape], lookup_all=ESCAPED[shape]))
        with pytest.raises(LocationError, match=f"malformed location.{op} answer"):
            deployment.client_stack(HOST).location.lookup(
                published.owner.oid, widen=op == "lookup_all"
            )

    def test_genuine_answer_decodes(self, world, op):
        deployment, published, genuine, serve = world
        serve(StubLocationService(genuine[op], lookup_all=genuine[op]))
        result = deployment.client_stack(HOST).location.lookup(
            published.owner.oid, widen=op == "lookup_all"
        )
        assert [a.to_dict() for a in result.addresses] == genuine[op]["addresses"]


@OPS
@MODES
class TestProxyFuzz:
    @given(data=st.data())
    @budget
    def test_proxy_never_raises(self, world, op, pipelined, data):
        _proxy_answers(world, op, data.draw(_answers(world, op)), pipelined)

    @pytest.mark.parametrize("shape", ESCAPED)
    def test_escaped_shape_is_answered(self, world, op, pipelined, shape):
        _proxy_answers(world, op, ESCAPED[shape], pipelined)

    def test_genuine_answer_is_served(self, world, op, pipelined):
        assert _proxy_answers(world, op, world[2][op], pipelined).ok


class TestCountAnswers:
    @given(answer=json_values)
    @budget
    def test_register_and_unregister_count_or_refuse(self, world, answer):
        deployment, published, _, serve = world
        serve(StubLocationService(None, count=answer))
        location = deployment.client_stack(HOST).location
        for change in (location.register_replica, location.unregister_replica):
            try:
                count = change(published.owner.oid, SITE, ContactAddress.from_dict(DEAD))
            except LocationError:
                continue
            assert isinstance(count, int)

    def test_huge_count_is_a_location_error(self, world):
        deployment, published, _, serve = world
        serve(StubLocationService(None, count="9" * 5000))
        with pytest.raises(LocationError, match="malformed location.insert answer"):
            deployment.client_stack(HOST).location.register_replica(
                published.owner.oid, SITE, ContactAddress.from_dict(DEAD)
            )
