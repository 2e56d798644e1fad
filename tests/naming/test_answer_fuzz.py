"""Fuzzing the naming answers: whatever a lying naming service sends,
the resolver returns the genuine OID or raises a typed naming error,
and the proxy answers with a response — never an exception.

Answers are drawn two ways: JSON-shaped values of any form, and
mutations of a genuine answer (a field dropped, retyped or replaced at
any depth). Each is served by a stub naming service both whole
(``naming.resolve``) and cut into per-zone steps (``naming.resolve_step``).
"""

from __future__ import annotations

import copy
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deployment import ZONE_PATHS, Deployment
from repro.errors import NamingError
from repro.naming.zone import ZoneKeys
from repro.net.transport import LoopbackTransport
from repro.sim.clock import SimClock
from tests.conftest import EPOCH, fast_keys
from tests.naming.stubservice import StubNameService, stub_resolver

HOST, SITE, NAME = "ginger.cs.vu.nl", "root/europe/vu", "vu.nl/doc"
CONTENT = b"<html>the genuine page</html>"

# Small inside tier-1; a requested profile (conftest's ``deep``) governs.
budget = (
    settings(deadline=None)
    if "HYPOTHESIS_PROFILE" in os.environ
    else settings(max_examples=40, deadline=None)
)

# No key near a frame's reserved ones (``__b64__``, ``__att__``): the
# stub could not send the answer at all.
_keys = st.text(max_size=8).filter(lambda k: "__" not in k)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
    st.binary(max_size=16),
)
#: Any value a frame carries.
_json = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(_keys, inner, max_size=4)
    ),
    max_leaves=12,
)
#: Answers with the right top-level shape around junk.
_shaped = st.fixed_dictionaries(
    {"chain": st.one_of(_json, st.lists(_json, max_size=4)), "record": _json}
)


def _retyped(value):
    """A value of another type carrying the same information, roughly."""
    if isinstance(value, dict):
        return list(value.values())
    if isinstance(value, list):
        return {str(i): item for i, item in enumerate(value)}
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, str):
        return value.encode()
    if isinstance(value, bool) or value is None:
        return int(bool(value))
    return str(value)


@st.composite
def _mutation(draw, genuine):
    """*genuine* with one field dropped, retyped or replaced, at any depth."""
    answer = copy.deepcopy(genuine)
    holder, key = None, None
    node = answer
    while isinstance(node, (dict, list)) and node:
        keys = sorted(node) if isinstance(node, dict) else list(range(len(node)))
        holder, key = node, draw(st.sampled_from(keys))
        node = node[key]
        if draw(st.booleans()):
            break
    if holder is None:
        return draw(_json)
    how = draw(st.sampled_from(["drop", "retype", "replace"]))
    if how == "drop":
        del holder[key]
    elif how == "retype":
        holder[key] = _retyped(holder[key])
    else:
        holder[key] = draw(_json)
    return answer


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
        answer = data.draw(st.one_of(_json, _shaped))
        _resolves_genuinely_or_refuses(world, answer, iterative)

    @given(data=st.data())
    @budget
    def test_mutated_genuine_answer(self, world, iterative, data):
        answer = data.draw(_mutation(world[2]))
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
        answer = data.draw(st.one_of(_json, _shaped, _mutation(world[2])))
        _proxy_answers(world, answer, iterative)

    def test_genuine_answer_is_served(self, world, iterative):
        _proxy_answers(world, world[2], iterative)
