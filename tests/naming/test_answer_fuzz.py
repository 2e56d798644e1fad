"""Fuzzing the naming answers: whatever a lying naming service sends,
the resolver returns the genuine OID or raises a typed naming error,
and the proxy answers with a response — never an exception.

Answers are drawn three ways: JSON-shaped values of any form,
mutations of a genuine answer (a field dropped, retyped or replaced at
any depth), and a genuine answer with one signed record's ``signed``
bytes attacked. Each is served by a stub naming service both whole
(``naming.resolve``) and cut into per-zone steps (``naming.resolve_step``).
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.deployment import ZONE_PATHS, Deployment
from repro.errors import NamingError
from repro.naming.zone import ZoneKeys
from repro.net.transport import LoopbackTransport
from repro.sim.clock import SimClock
from tests.answerfuzz import budget, json_values, mutation, signed_mutation
from tests.conftest import EPOCH, fast_keys
from tests.naming.stubservice import StubNameService, stub_resolver

HOST, SITE, NAME = "ginger.cs.vu.nl", "root/europe/vu", "vu.nl/doc"
CONTENT = b"<html>the genuine page</html>"

#: Answers with the right top-level shape around junk.
_shaped = st.fixed_dictionaries(
    {
        "chain": st.one_of(json_values, st.lists(json_values, max_size=4)),
        "record": json_values,
    }
)


@pytest.fixture(scope="module")
def world():
    """A loopback deployment with one published page, its genuine naming
    answer, and ``serve(answer)``: put a stub in its naming service's
    place."""
    keys = {zone: ZoneKeys(zone, fast_keys()) for zone in ZONE_PATHS}
    loopback = LoopbackTransport()
    deployment = Deployment(
        SimClock(EPOCH), loopback.register, lambda host: loopback,
        HOST, {HOST: SITE}, zone_keys=keys,
    )
    published = deployment.publish(deployment.document_owner(NAME, {"index.html": CONTENT}))
    genuine = deployment.naming.resolve_with_proof(NAME)

    def serve(answer) -> None:
        deployment.register(
            deployment.naming_endpoint, StubNameService(answer).rpc_server().handle_frame
        )

    return deployment, published, genuine, serve


def _resolves_genuinely_or_refuses(world, answer, iterative) -> None:
    deployment, published, _, _ = world
    resolver = stub_resolver(answer, deployment.naming.root_key, deployment.clock, iterative)
    try:
        result = resolver.resolve(NAME)
    except NamingError:
        return
    assert result.oid == published.owner.oid


def _proxy_answers(world, answer, iterative) -> None:
    deployment, published, _, serve = world
    serve(answer)
    stack = deployment.client_stack(HOST)
    stack.resolver.iterative = iterative
    response = stack.proxy.handle(published.url("index.html"))
    assert response.status in (200, 404)
    if response.status == 200:
        assert response.content == CONTENT


MODES = pytest.mark.parametrize("iterative", [True, False], ids=["iterative", "one-shot"])


@MODES
class TestResolverFuzz:
    @given(data=st.data())
    @budget
    def test_generated_answer(self, world, iterative, data):
        answer = data.draw(st.one_of(json_values, _shaped))
        _resolves_genuinely_or_refuses(world, answer, iterative)

    @given(data=st.data())
    @budget
    def test_mutated_genuine_answer(self, world, iterative, data):
        answer = data.draw(mutation(world[2]))
        _resolves_genuinely_or_refuses(world, answer, iterative)

    @given(data=st.data())
    @budget
    def test_mutated_signed_record(self, world, iterative, data):
        answer = data.draw(signed_mutation(world[2]))
        _resolves_genuinely_or_refuses(world, answer, iterative)

    def test_genuine_answer_resolves(self, world, iterative):
        deployment, published, genuine, _ = world
        resolver = stub_resolver(genuine, deployment.naming.root_key, deployment.clock, iterative)
        assert resolver.resolve(NAME).oid == published.owner.oid


@MODES
class TestProxyFuzz:
    @given(data=st.data())
    @budget
    def test_proxy_never_raises(self, world, iterative, data):
        answer = data.draw(
            st.one_of(json_values, _shaped, mutation(world[2]), signed_mutation(world[2]))
        )
        _proxy_answers(world, answer, iterative)

    def test_genuine_answer_is_served(self, world, iterative):
        _proxy_answers(world, world[2], iterative)
