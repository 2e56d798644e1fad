"""Batch frames: a window's calls to one endpoint travel as one request.

Server side, a batch's calls are dispatched one by one as if each had
come alone: a bad entry, an unknown op (a nested batch is one) or a
raising handler fails its own slot, and the rest are answered. Client
side, an answer is believed only if it is one well-formed slot per
call; anything else fails every call of the frame with a
``TransportError``, so the pipeline parks nothing from it and the replay
fetches each call on its own — the page's verdicts are the sequential
proxy's.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.errors as errors
from repro.deployment import ZONE_PATHS, Deployment
from repro.errors import AuthenticityError, RpcError, TransportError
from repro.naming.zone import ZoneKeys
from repro.net.address import Endpoint
from repro.net.message import BATCH_OP, Request, Response
from repro.net.rpc import BatchCall, RpcClient, RpcServer
from repro.net.topology import paper_testbed
from repro.proxy.pipeline import PipelineConfig
from repro.sim.clock import SimClock
from tests.answerfuzz import budget, json_values
from tests.conftest import fast_keys
from tests.net.test_rpc import Calculator


@pytest.fixture
def server():
    server = RpcServer(name="calc")
    server.register_object(Calculator())
    return server


def answer_batch(server, calls) -> Response:
    frame = Request(op=BATCH_OP, args={"calls": calls}).to_bytes()
    return Response.from_bytes(server.handle_frame(frame))


class TestServer:
    def test_each_bad_call_fails_only_its_own_slot(self, server):
        add = {"op": "calc.add", "args": {"a": 1, "b": 2}}
        answer = answer_batch(
            server,
            [
                add,
                "not a mapping",
                {"op": 7, "args": {}},
                {"op": "calc.add", "args": [1, 2]},
                {"op": BATCH_OP, "args": {"calls": [add]}},
                {"op": "calc.missing"},
                {"op": "calc.fail"},
                {"op": "calc.add", "args": {"a": 3, "b": 4}},
            ],
        )
        assert answer.ok
        slots = [Response.from_slot(slot) for slot in answer.value]
        assert [slot.ok for slot in slots] == [True] + [False] * 6 + [True]
        assert (slots[0].value, slots[-1].value) == (3, 7)
        assert [slot.error_type for slot in slots[1:7]] == ["RpcError"] * 5 + [
            "AuthenticityError"
        ]
        assert "malformed batch entry" in slots[1].error
        assert "unknown operation 'rpc.batch'" in slots[4].error  # no nesting

    def test_a_call_list_that_is_no_list_fails_the_frame(self, server):
        answer = answer_batch(server, {"op": "calc.add"})
        assert not answer.ok
        assert answer.error_type == "RpcError"
        assert "malformed batch" in answer.error

    def test_an_empty_batch_is_an_empty_answer(self, server):
        assert answer_batch(server, []).value == []

    def test_the_batch_op_cannot_be_registered(self, server):
        with pytest.raises(RpcError, match="reserved"):
            server.register(BATCH_OP, lambda **args: None)


# ----------------------------------------------------------------------
# Client side: whatever a server answers, every call gets a slot
# ----------------------------------------------------------------------

ENDPOINT = Endpoint(host="h1", service="calc")

#: Error type names a slot may carry: real ones, unknown ones, odd ones.
_error_types = st.one_of(
    st.sampled_from(["AuthenticityError", "TransportError", "RpcError", "ValueError", ""]),
    json_values,
)
_slots = st.one_of(
    st.fixed_dictionaries({"ok": st.just(True)}, optional={"value": json_values}),
    st.fixed_dictionaries(
        {"ok": st.just(False)},
        optional={"error": json_values, "error_type": _error_types},
    ),
    st.fixed_dictionaries({"ok": st.sampled_from([0, 1, "true", None])}),
    json_values,
)


class ScriptedTransport:
    """Carries windows, answering every batch frame with a scripted
    value (a success response's, unless ``fail``)."""

    answer = None
    fail = False

    def request_many(self, batch):
        if self.fail:
            reply = Response.failure(AuthenticityError("the whole batch")).to_bytes()
        else:
            reply = Response.success(self.answer).to_bytes()
        return [reply for _ in batch]


def believed(answer, count):
    """The slots a client may believe: *answer* if it is one slot per
    call, each a mapping with a ``bool`` ``ok``; else None."""
    if isinstance(answer, list) and len(answer) == count:
        if all(isinstance(slot, dict) and isinstance(slot.get("ok"), bool) for slot in answer):
            return answer
    return None


def rehydrated(error_type) -> type:
    cls = getattr(errors, str(error_type), None)
    return cls if str(error_type) in errors.__all__ and isinstance(cls, type) else RpcError


@given(
    count=st.integers(2, 5),
    answer=st.one_of(st.lists(_slots, max_size=6), json_values),
    fail=st.booleans(),
)
@budget
def test_every_call_gets_a_value_or_a_typed_error(count, answer, fail):
    transport = ScriptedTransport()
    transport.answer, transport.fail = answer, fail
    calls = [BatchCall(ENDPOINT, "calc.add", {"a": i, "b": 0}) for i in range(count)]
    outcomes = RpcClient(transport).call_many(calls)

    assert len(outcomes) == len(calls)
    if fail:
        assert all(type(outcome.error) is AuthenticityError for outcome in outcomes)
        return
    slots = believed(answer, count)
    if slots is None:
        for outcome in outcomes:
            assert isinstance(outcome.error, TransportError)
            assert "bad response frame" in str(outcome.error)
        return
    for outcome, slot in zip(outcomes, slots):
        if slot["ok"]:
            assert outcome.ok and outcome.value == slot.get("value")
        else:
            assert type(outcome.error) is rehydrated(slot.get("error_type", ""))


# ----------------------------------------------------------------------
# Through the proxy: a bad batch answer costs a re-fetch, nothing else
# ----------------------------------------------------------------------

HOST, CLIENT, SITE = "ginger.cs.vu.nl", "canardo.inria.fr", "root/europe/vu"
ELEMENTS = {"index.html": b"<html>page</html>", "logo.bin": bytes(range(256))}


class BatchMutator:
    """Wraps a frame handler: honest, but every batch answer goes
    through ``mutate`` (a function of the honest slot list) if set."""

    def __init__(self):
        self.mutate = None
        self.mutated = 0

    def wrap(self, handler):
        def handle_frame(frame: bytes) -> bytes:
            reply = handler(frame)
            if self.mutate is None or Request.from_bytes(frame).op != BATCH_OP:
                return reply
            self.mutated += 1
            return Response.success(self.mutate(Response.from_bytes(reply).value)).to_bytes()

        return handle_frame


@pytest.fixture(scope="module")
def page_world():
    network = paper_testbed(SimClock(1000.0)).network
    mutator = BatchMutator()

    def register(endpoint, handler):
        network.register(endpoint, mutator.wrap(handler))

    zone_keys = {zone: ZoneKeys(zone, fast_keys()) for zone in ZONE_PATHS}
    deployment = Deployment(
        network.clock, register, network.transport_for, HOST,
        {HOST: SITE, CLIENT: SITE}, zone_keys=zone_keys,
    )
    published = deployment.publish(deployment.document_owner("vu.nl/batch", ELEMENTS))
    urls = [published.url(name) for name in (*ELEMENTS, "missing.html")]
    return deployment, mutator, urls


@st.composite
def batch_mutation(draw, slots):
    """*slots* in one wrong shape a client must not believe:
    wrong length, a non-mapping entry, ``ok`` missing or not a bool — or
    one call failed with an odd error type."""
    slots = [dict(slot) for slot in slots]
    index = draw(st.integers(0, len(slots) - 1))
    how = draw(st.sampled_from(["drop", "extra", "entry", "no_ok", "ok_type", "error_type"]))
    if how == "drop":
        del slots[index]
    elif how == "extra":
        slots.insert(index, dict(slots[index]))
    elif how == "entry":
        slots[index] = draw(json_values.filter(lambda value: not isinstance(value, dict)))
    elif how == "no_ok":
        del slots[index]["ok"]
    elif how == "ok_type":
        slots[index]["ok"] = draw(st.sampled_from([0, 1, "true", None]))
    else:
        error = draw(json_values)
        slots[index] = {"ok": False, "error": error, "error_type": draw(_error_types)}
    return slots


def seen(response):
    return response.status, response.content, response.security_failure


@given(data=st.data())
@budget
def test_a_mangled_batch_answer_leaves_every_verdict_as_handle_s(page_world, data):
    deployment, mutator, urls = page_world
    mutator.mutate = None
    expected = [seen(deployment.client_stack(CLIENT).proxy.handle(url)) for url in urls]
    mutator.mutate = lambda slots: data.draw(batch_mutation(slots))
    before = mutator.mutated
    try:
        pipelined = deployment.client_stack(CLIENT, pipeline=PipelineConfig()).proxy
        responses = pipelined.handle_many(urls)
    finally:
        mutator.mutate = None
    assert mutator.mutated > before  # the fetch wave was a batch, and mangled
    assert [seen(response) for response in responses] == expected
