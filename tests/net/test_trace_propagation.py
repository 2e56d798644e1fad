"""Trace-context propagation over the RPC envelope.

The propagation edges that actually carry production traffic: plain
calls, retried calls (same trace id, distinct attempt spans), windowed
pipelined batches, a mid-fetch session failover, and the NOOP tracer
(no context injected — zero envelope growth). The acceptance rule
throughout: trace context is advisory and can never fail an RPC.
"""

from __future__ import annotations

import pytest

from repro.errors import AuthenticityError, TransportError
from repro.net.address import ContactAddress, Endpoint
from repro.net.message import Request, Response
from repro.net.rpc import DEFAULT_WINDOW, BatchCall, RpcClient, RpcServer, rpc_method
from repro.net.retry import RetryingRpcClient, RetryPolicy
from repro.net.transport import LoopbackTransport
from repro.obs import RingBufferSink, TraceAssembler, Tracer
from repro.proxy.pipeline import PrefetchingRpcClient
from repro.sim.clock import SimClock


class Store:
    """Idempotent-prefixed ops so the retry layer will re-issue them."""

    @rpc_method("globedoc.get")
    def get(self, key: str = "x") -> str:
        return f"value-{key}"

    @rpc_method("globedoc.tampered")
    def tampered(self) -> None:
        raise AuthenticityError("forged content")


class FlakyTransport(LoopbackTransport):
    """Fails the first *failures* requests with a TransportError."""

    def __init__(self, failures: int = 0):
        super().__init__()
        self.failures = failures

    def request(self, endpoint, frame):
        if self.failures > 0:
            self.failures -= 1
            raise TransportError("injected fault")
        return super().request(endpoint, frame)


class BatchingTransport(LoopbackTransport):
    """Loopback plus ``request_many``; slots in ``fail_round_one`` get a
    TransportError on the first round only, and the next
    ``lose_requests`` single requests are lost. ``frames`` counts each
    round's frames."""

    def __init__(self):
        super().__init__()
        self.fail_round_one = set()
        self.lose_requests = 0
        self.rounds = 0
        self.frames = []

    def request(self, endpoint, frame):
        if self.lose_requests > 0:
            self.lose_requests -= 1
            raise TransportError("injected fault")
        return super().request(endpoint, frame)

    def request_many(self, batch):
        self.rounds += 1
        self.frames.append(len(batch))
        results = []
        for i, (endpoint, frame) in enumerate(batch):
            if self.rounds == 1 and i in self.fail_round_one:
                results.append(TransportError("injected fault"))
                continue
            try:
                results.append(super().request(endpoint, frame))
            except Exception as exc:
                results.append(exc)
        return results


ENDPOINT = Endpoint(host="h1", service="objectserver")


def wire(transport, clock):
    """A traced client and a traced server on separate tracers."""
    client_ring, server_ring = RingBufferSink(), RingBufferSink()
    client_tracer = Tracer(clock=clock, sinks=(client_ring,), origin="client")
    server_tracer = Tracer(clock=clock, sinks=(server_ring,), origin="server")
    server = RpcServer(name="objectserver", tracer=server_tracer)
    server.register_object(Store())
    transport.register(ENDPOINT, server.handle_frame)
    client = RpcClient(transport, tracer=client_tracer)
    return client, client_tracer, client_ring, server_ring


def stitched(client_ring, server_ring):
    assembler = TraceAssembler()
    assembler.add_sink(client_ring)
    assembler.add_sink(server_ring)
    return assembler.collect()


@pytest.fixture
def clock():
    return SimClock(0.0)


class TestCallPropagation:
    def test_server_span_adopts_client_context(self, clock):
        client, _, client_ring, server_ring = wire(LoopbackTransport(), clock)
        assert client.call(ENDPOINT, "globedoc.get", key="a") == "value-a"

        call = client_ring.named("rpc.call")[0]
        handle = server_ring.named("server.handle")[0]
        assert handle.trace_id == call.trace_id
        assert handle.remote_parent == call.ref
        assert handle.attributes["op"] == "globedoc.get"

        traces = stitched(client_ring, server_ring)
        assert len(traces) == 1
        assert traces[0].stitch_rate == 1.0
        assert traces[0].origins == ["client", "server"]

    def test_untraced_client_leaves_server_span_rooted(self, clock):
        client, _, _, server_ring = wire(LoopbackTransport(), clock)
        # A NOOP-traced client on the same transport injects no context.
        plain = RpcClient(client.transport)
        assert plain.call(ENDPOINT, "globedoc.get", key="b") == "value-b"
        handle = server_ring.named("server.handle")[0]
        assert handle.remote_parent is None
        assert handle.trace_id.startswith("server-")

    def test_garbage_context_never_fails_the_call(self, clock):
        client, _, _, server_ring = wire(LoopbackTransport(), clock)
        for ctx in ({"trace": "", "span": "x:1"}, {"trace": 7}, {"span": []}):
            frame = Request(op="globedoc.get", args={"key": "g"}, ctx=ctx)
            response = Response.from_bytes(
                client.transport.request(ENDPOINT, frame.to_bytes())
            )
            assert response.ok and response.value == "value-g"
        # Every garbage adoption degraded to a clean root span.
        for span in server_ring.named("server.handle"):
            assert span.remote_parent is None
            assert span.trace_id.startswith("server-")

    def test_unknown_but_valid_context_is_adopted_not_rejected(self, clock):
        client, _, _, server_ring = wire(LoopbackTransport(), clock)
        ctx = {"trace": "ghost-000001", "span": "ghost:9"}
        frame = Request(op="globedoc.get", args={"key": "g"}, ctx=ctx)
        response = Response.from_bytes(
            client.transport.request(ENDPOINT, frame.to_bytes())
        )
        assert response.ok
        span = server_ring.named("server.handle")[0]
        assert span.trace_id == "ghost-000001"
        assert span.remote_parent == "ghost:9"


class TestNoopEnvelope:
    def test_noop_client_sends_byte_identical_frames(self, clock):
        transport = LoopbackTransport()
        server = RpcServer(name="objectserver")
        server.register_object(Store())
        frames = []

        def recording(frame):
            frames.append(frame)
            return server.handle_frame(frame)

        transport.register(ENDPOINT, recording)
        client = RpcClient(transport)  # defaults to NOOP_TRACER
        client.call(ENDPOINT, "globedoc.get", key="x")
        bare = Request(op="globedoc.get", args={"key": "x"}).to_bytes()
        assert frames[0] == bare  # zero envelope growth

    def test_traced_client_grows_envelope_with_parseable_context(self, clock):
        transport = LoopbackTransport()
        server = RpcServer(name="objectserver")
        server.register_object(Store())
        frames = []

        def recording(frame):
            frames.append(frame)
            return server.handle_frame(frame)

        transport.register(ENDPOINT, recording)
        tracer = Tracer(clock=clock, origin="client")
        client = RpcClient(transport, tracer=tracer)
        client.call(ENDPOINT, "globedoc.get", key="x")
        bare = Request(op="globedoc.get", args={"key": "x"}).to_bytes()
        assert len(frames[0]) > len(bare)
        decoded = Request.from_bytes(frames[0])
        assert decoded.ctx["trace"].startswith("client-")
        assert decoded.ctx["span"].startswith("client:")


class TestRetryPropagation:
    def policy(self):
        return RetryPolicy(max_attempts=3, base_delay=0.1, jitter=0.0, seed=0)

    def test_retries_stay_in_one_trace_with_distinct_attempts(self, clock):
        client, tracer, client_ring, server_ring = wire(
            FlakyTransport(failures=1), clock
        )
        retrying = RetryingRpcClient(
            client, policy=self.policy(), clock=clock, tracer=tracer
        )
        with tracer.span("session.fetch") as root:
            assert retrying.call(ENDPOINT, "globedoc.get", key="r") == "value-r"

        attempts = client_ring.named("rpc.attempt")
        assert [s.attributes["attempt"] for s in attempts] == [1, 2]
        assert len({s.span_id for s in attempts}) == 2
        assert all(s.trace_id == root.trace_id for s in attempts)
        # The failed try records its chosen backoff; the success doesn't.
        assert attempts[0].is_error
        assert attempts[0].attributes["backoff_s"] == pytest.approx(0.1)
        assert "backoff_s" not in attempts[1].attributes
        # The wait happens *between* the attempt spans, not inside one.
        assert attempts[1].start - attempts[0].end == pytest.approx(0.1)
        # The one successful server span joined the same trace.
        handle = server_ring.named("server.handle")[0]
        assert handle.trace_id == root.trace_id

        traces = stitched(client_ring, server_ring)
        assert len(traces) == 1
        assert traces[0].stitch_rate == 1.0

    def test_security_error_fails_closed_in_one_attempt(self, clock):
        client, tracer, client_ring, _ = wire(LoopbackTransport(), clock)
        retrying = RetryingRpcClient(
            client, policy=self.policy(), clock=clock, tracer=tracer
        )
        with tracer.span("session.fetch"):
            with pytest.raises(AuthenticityError):
                retrying.call(ENDPOINT, "globedoc.tampered")
        attempts = client_ring.named("rpc.attempt")
        assert len(attempts) == 1  # never retried
        assert attempts[0].error_type == "AuthenticityError"
        assert retrying.counters.retries == 0

    def test_pipelined_batch_retries_share_the_trace(self, clock):
        """A pipelined batch on a retrying stack (plain client, then the
        prefetcher, then the retry layer): the wave is one attempt and
        loses its frame, so the replay re-issues every call through the
        retry layer, which retries the one whose request is lost too.
        Every attempt sits in the batch's one trace."""
        transport = BatchingTransport()
        transport.fail_round_one = {0}  # the wave's one batch frame
        client, tracer, client_ring, server_ring = wire(transport, clock)
        prefetcher = PrefetchingRpcClient(client, tracer=tracer)
        retrying = RetryingRpcClient(
            prefetcher, policy=self.policy(), clock=clock, tracer=tracer
        )
        keys = [str(i) for i in range(3)]
        with tracer.span("pipeline.schedule") as root:
            assert prefetcher.prefetch(
                [BatchCall(ENDPOINT, "globedoc.get", {"key": key}) for key in keys]
            ) == [False, False, False]
            transport.lose_requests = 1
            values = [retrying.call(ENDPOINT, "globedoc.get", key=key) for key in keys]
        assert values == ["value-0", "value-1", "value-2"]

        assert transport.frames == [1]
        assert len(client_ring.named("rpc.call_many")) == 1
        attempts = client_ring.named("rpc.attempt")
        assert [s.attributes["attempt"] for s in attempts] == [1, 2, 1, 1]
        assert attempts[0].attributes["backoff_s"] == pytest.approx(0.1)
        assert retrying.counters.retries == 1
        assert all(s.trace_id == root.trace_id for s in attempts)
        # The replay's three calls reached the server, all stitched.
        handles = server_ring.named("server.handle")
        assert len(handles) == 3
        assert all(s.trace_id == root.trace_id for s in handles)
        traces = stitched(client_ring, server_ring)
        assert len(traces) == 1
        assert traces[0].stitch_rate == 1.0


class TestWindowedPipelining:
    def test_each_window_parents_its_requests(self, clock):
        transport = BatchingTransport()
        client, tracer, client_ring, server_ring = wire(transport, clock)
        calls = [
            BatchCall(ENDPOINT, "globedoc.get", {"key": str(i)})
            for i in range(DEFAULT_WINDOW + 2)
        ]
        with tracer.span("pipeline.schedule") as root:
            outcomes = client.call_many(calls)
        assert all(o.ok for o in outcomes)

        windows = client_ring.named("rpc.call_many")
        assert [s.attributes["calls"] for s in windows] == [DEFAULT_WINDOW, 2]
        assert transport.frames == [1, 1]  # each window is one frame
        assert all(s.trace_id == root.trace_id for s in windows)
        # Every server span names the window that carried it — the
        # window is the causal unit of a pipelined batch.
        by_window = {}
        for handle in server_ring.named("server.handle"):
            assert handle.trace_id == root.trace_id
            by_window.setdefault(handle.remote_parent, 0)
            by_window[handle.remote_parent] += 1
        assert by_window == {w.ref: w.attributes["calls"] for w in windows}

    def test_each_batched_call_has_its_own_server_span(self, clock):
        transport = BatchingTransport()
        client, tracer, client_ring, server_ring = wire(transport, clock)
        calls = [BatchCall(ENDPOINT, "globedoc.get", {"key": "a"})]
        calls += [BatchCall(ENDPOINT, "globedoc.tampered")]
        calls += [BatchCall(ENDPOINT, "globedoc.missing")]
        with tracer.span("pipeline.schedule"):
            outcomes = client.call_many(calls)
        assert outcomes[0].value == "value-a"
        assert isinstance(outcomes[1].error, AuthenticityError)
        assert transport.frames == [1]

        (window,) = client_ring.named("rpc.call_many")
        handles = server_ring.named("server.handle")
        assert [s.attributes["op"] for s in handles] == [call.op for call in calls]
        assert [s.is_error for s in handles] == [False, True, True]
        assert all(s.remote_parent == window.ref for s in handles)
        assert all(s.trace_id == window.trace_id for s in handles)
        traces = stitched(client_ring, server_ring)
        assert len(traces) == 1
        assert traces[0].stitch_rate == 1.0

    def test_contact_address_targets_propagate_too(self, clock):
        transport = BatchingTransport()
        client, tracer, client_ring, server_ring = wire(transport, clock)
        address = ContactAddress(endpoint=ENDPOINT, replica_id="r1")
        with tracer.span("pipeline.schedule") as root:
            outcomes = client.call_many(
                [BatchCall(address, "globedoc.get", {"key": "c"})]
            )
        assert outcomes[0].value == "value-c"
        handle = server_ring.named("server.handle")[0]
        assert handle.trace_id == root.trace_id


class TestMidFetchFailover:
    def test_failover_keeps_one_cross_process_trace(self):
        from repro.globedoc.element import PageElement
        from repro.globedoc.owner import DocumentOwner
        from repro.globedoc.urls import HybridUrl
        from repro.harness.experiment import Testbed
        from repro.proxy.binding import BoundObject
        from repro.proxy.session import SecureSession
        from repro.server.localrep import ProxyLR
        from tests.conftest import fast_keys

        clock = SimClock(0.0)
        client_ring, server_ring = RingBufferSink(), RingBufferSink()
        client_tracer = Tracer(clock=clock, sinks=(client_ring,), origin="client")
        server_tracer = Tracer(clock=clock, sinks=(server_ring,), origin="server")
        testbed = Testbed(clock=clock, tracer=server_tracer)
        owner = DocumentOwner("vu.nl/research", keys=fast_keys(), clock=clock)
        owner.put_element(PageElement("index.html", b"<html>hi</html>"))
        published = testbed.publish(owner, validity=3600)
        stack = testbed.client_stack("canardo.inria.fr", tracer=client_tracer)

        bound = stack.binder.bind(HybridUrl.parse(published.url("index.html")))
        session = SecureSession(
            binder=stack.binder, checker=stack.checker, bound=bound,
            tracer=client_tracer,
        )
        session.fetch("index.html")  # warm: binding verified and cached
        client_ring.clear()
        server_ring.clear()

        dead = ContactAddress(
            endpoint=Endpoint(
                host="ginger.cs.vu.nl", service="crashed-objectserver"
            ),
            replica_id="dead",
        )
        good = session.bound.addresses
        session.bound = BoundObject(
            oid=session.bound.oid,
            addresses=[dead] + list(good),
            address_index=0,
            lr=ProxyLR(stack.binder.rpc, dead),
        )
        result = session.fetch("index.html")
        assert result.content == b"<html>hi</html>"
        assert len(client_ring.named("session.failover")) == 1

        traces = stitched(client_ring, server_ring)
        fetch_traces = [t for t in traces if t.named("session.fetch")]
        assert len(fetch_traces) == 1
        trace = fetch_traces[0]
        # Before, during, and after the failover: one trace, fully
        # stitched across both processes.
        assert trace.root is not None and trace.root.name == "session.fetch"
        assert trace.named("session.failover")
        assert trace.named("server.handle")
        assert trace.origins == ["client", "server"]
        assert trace.stitch_rate == 1.0
        assert len({s.trace_id for s in trace.spans}) == 1
