"""RPC layer: dispatch, decorated objects, error rehydration."""

from __future__ import annotations

import pytest

from repro.errors import (
    AccessDenied,
    AuthenticityError,
    FreshnessError,
    RpcError,
    TransportError,
)
from repro.net.address import ContactAddress, Endpoint
from repro.net.message import BATCH_OP, Request, Response
from repro.net.rpc import BatchCall, RpcClient, RpcServer, rpc_method
from repro.net.transport import LoopbackTransport


class Calculator:
    @rpc_method("calc.add")
    def add(self, a: int, b: int) -> int:
        return a + b

    @rpc_method("calc.fail")
    def fail(self) -> None:
        raise AuthenticityError("bad content")

    def not_exposed(self) -> str:  # no decorator
        return "hidden"


@pytest.fixture
def wired():
    transport = LoopbackTransport()
    server = RpcServer(name="calc")
    server.register_object(Calculator())
    endpoint = Endpoint(host="h1", service="calc")
    transport.register(endpoint, server.handle_frame)
    return RpcClient(transport), endpoint, server


class TestDispatch:
    def test_call(self, wired):
        client, endpoint, _ = wired
        assert client.call(endpoint, "calc.add", a=2, b=3) == 5

    def test_contact_address_target(self, wired):
        client, endpoint, _ = wired
        address = ContactAddress(endpoint=endpoint, replica_id="r1")
        assert client.call(address, "calc.add", a=1, b=1) == 2

    def test_unknown_op(self, wired):
        client, endpoint, _ = wired
        with pytest.raises(RpcError, match="unknown operation"):
            client.call(endpoint, "calc.missing")

    def test_undecorated_not_registered(self, wired):
        _, _, server = wired
        assert server.operations == ["calc.add", "calc.fail"]

    def test_duplicate_registration_rejected(self, wired):
        _, _, server = wired
        with pytest.raises(RpcError):
            server.register("calc.add", lambda: None)

    def test_invalid_target_rejected(self, wired):
        client, _, _ = wired
        with pytest.raises(RpcError):
            client.call("not-an-endpoint", "calc.add")


class TestErrorTransport:
    def test_security_error_rehydrated(self, wired):
        """Security failures must arrive as security errors, not RpcError."""
        client, endpoint, _ = wired
        with pytest.raises(AuthenticityError, match="bad content"):
            client.call(endpoint, "calc.fail")

    def test_handler_exception_does_not_kill_server(self, wired):
        client, endpoint, _ = wired
        with pytest.raises(AuthenticityError):
            client.call(endpoint, "calc.fail")
        assert client.call(endpoint, "calc.add", a=1, b=2) == 3

    def test_bad_frame_returns_error_response(self, wired):
        _, _, server = wired
        frame = server.handle_frame(b"not a frame")
        response = Response.from_bytes(frame)
        assert not response.ok
        assert response.error_type == "TransportError"

    def test_wrong_args_becomes_error(self, wired):
        client, endpoint, _ = wired
        with pytest.raises(RpcError):
            client.call(endpoint, "calc.add", wrong_arg=1)


class TestTransportErrors:
    def test_unregistered_endpoint(self):
        client = RpcClient(LoopbackTransport())
        with pytest.raises(TransportError):
            client.call(Endpoint(host="nowhere", service="x"), "op")

    def test_stats_accounting(self, wired):
        client, endpoint, _ = wired
        client.call(endpoint, "calc.add", a=1, b=2)
        stats = client.transport.stats
        assert stats.requests == 1
        assert stats.bytes_sent > 0
        assert stats.bytes_received > 0


class BatchingTransport(LoopbackTransport):
    """Loopback plus ``request_many``, recording each wave's frame count
    and the calls each frame carries."""

    def __init__(self):
        super().__init__()
        self.batches = []
        self.calls_per_frame = []

    def request_many(self, batch):
        self.batches.append(len(batch))
        for _, frame in batch:
            request = Request.from_bytes(frame)
            batched = request.op == BATCH_OP
            self.calls_per_frame.append(len(request.args["calls"]) if batched else 1)
        results = []
        for endpoint, frame in batch:
            try:
                results.append(self.request(endpoint, frame))
            except Exception as exc:
                results.append(exc)
        return results


@pytest.fixture
def batch_wired():
    transport = BatchingTransport()
    server = RpcServer(name="calc")
    server.register_object(Calculator())
    endpoint = Endpoint(host="h1", service="calc")
    transport.register(endpoint, server.handle_frame)
    return RpcClient(transport), endpoint, transport


class TestCallMany:
    def test_outcomes_align_with_calls(self, batch_wired):
        client, endpoint, _ = batch_wired
        calls = [
            BatchCall(endpoint, "calc.add", {"a": i, "b": 10}) for i in range(5)
        ]
        outcomes = client.call_many(calls)
        assert [o.value for o in outcomes] == [10, 11, 12, 13, 14]
        assert all(o.ok for o in outcomes)

    def test_windowing_chunks_the_batch(self, batch_wired):
        client, endpoint, transport = batch_wired
        calls = [
            BatchCall(endpoint, "calc.add", {"a": i, "b": 0}) for i in range(10)
        ]
        outcomes = client.call_many(calls)
        assert [o.value for o in outcomes] == list(range(10))
        # Windows of DEFAULT_WINDOW (8) calls, one frame per window: its
        # calls all go to one endpoint.
        assert transport.batches == [1, 1]
        assert transport.calls_per_frame == [8, 2]

    def test_a_window_is_one_frame_per_endpoint(self, batch_wired):
        client, endpoint, transport = batch_wired
        other = Endpoint(host="h2", service="calc")
        server = RpcServer(name="calc2")
        server.register_object(Calculator())
        transport.register(other, server.handle_frame)
        calls = [
            BatchCall(endpoint if i % 3 else other, "calc.add", {"a": i, "b": 1})
            for i in range(6)
        ]
        outcomes = client.call_many(calls)
        assert [o.value for o in outcomes] == [i + 1 for i in range(6)]
        assert transport.batches == [2]
        # In order of each endpoint's first call: h2's two, h1's four.
        assert transport.calls_per_frame == [2, 4]

    def test_a_lone_call_is_the_plain_request_frame(self, batch_wired):
        client, endpoint, transport = batch_wired
        sent = []
        handler = transport._handlers[endpoint]
        transport.register(endpoint, lambda frame: sent.append(frame) or handler(frame))
        client.call_many([BatchCall(endpoint, "calc.add", {"a": 1, "b": 2})])
        client.call(endpoint, "calc.add", a=1, b=2)
        assert sent[0] == sent[1] == Request(op="calc.add", args={"a": 1, "b": 2}).to_bytes()

    def test_remote_errors_rehydrate_per_slot(self, batch_wired):
        client, endpoint, _ = batch_wired
        outcomes = client.call_many(
            [
                BatchCall(endpoint, "calc.add", {"a": 1, "b": 2}),
                BatchCall(endpoint, "calc.fail"),
                BatchCall(endpoint, "calc.add", {"a": 3, "b": 4}),
            ]
        )
        assert outcomes[0].value == 3
        assert not outcomes[1].ok
        assert isinstance(outcomes[1].error, AuthenticityError)
        assert outcomes[2].value == 7

    def test_transport_fault_captured_not_raised(self, batch_wired):
        client, endpoint, _ = batch_wired
        ghost = Endpoint(host="h1", service="ghost")
        outcomes = client.call_many(
            [
                BatchCall(ghost, "calc.add", {"a": 1, "b": 1}),
                BatchCall(endpoint, "calc.add", {"a": 1, "b": 1}),
            ]
        )
        assert isinstance(outcomes[0].error, TransportError)
        assert outcomes[1].value == 2

    def test_sequential_fallback_without_request_many(self, wired):
        # LoopbackTransport has no request_many: same outcomes, serially.
        client, endpoint, _ = wired
        outcomes = client.call_many(
            [
                BatchCall(endpoint, "calc.add", {"a": 2, "b": 2}),
                BatchCall(endpoint, "calc.fail"),
            ]
        )
        assert outcomes[0].value == 4
        assert isinstance(outcomes[1].error, AuthenticityError)

    @pytest.mark.parametrize("fixture", ["batch_wired", "wired"])
    def test_invalid_target_fails_its_slot_only(self, fixture, request):
        # With and without ``request_many`` a batch never raises per
        # call: the bad target's error sits in its slot and the other
        # calls of the window still travel.
        client, endpoint, _ = request.getfixturevalue(fixture)
        outcomes = client.call_many(
            [
                BatchCall(endpoint, "calc.add", {"a": 1, "b": 2}),
                BatchCall("h1/calc", "calc.add", {"a": 1, "b": 1}),
                BatchCall(endpoint, "calc.add", {"a": 3, "b": 4}),
            ]
        )
        assert [o.value for o in outcomes] == [3, None, 7]
        assert isinstance(outcomes[1].error, RpcError)
        assert "invalid RPC target" in str(outcomes[1].error)
        # The two valid calls share one batch frame when the transport
        # carries windows; the sequential fallback sends each alone.
        assert client.transport.stats.requests == (1 if fixture == "batch_wired" else 2)
        assert client.call_many([BatchCall(None, "calc.add")])[0].ok is False

    def test_contact_address_targets(self, batch_wired):
        client, endpoint, _ = batch_wired
        address = ContactAddress(endpoint=endpoint, replica_id="r1")
        outcomes = client.call_many([BatchCall(address, "calc.add", {"a": 5, "b": 5})])
        assert outcomes[0].value == 10
