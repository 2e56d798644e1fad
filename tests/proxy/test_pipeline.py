"""The concurrent access pipeline: coalescing, prefetch, speculation."""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.verifycache import VerificationCache
from repro.errors import TransportError
from repro.globedoc.urls import HybridUrl
from repro.net.address import Endpoint
from repro.net.rpc import BatchCall, BatchOutcome
from repro.obs import MetricsRegistry, Tracer
from repro.proxy.pipeline import (
    AccessScheduler,
    PipelineConfig,
    PrefetchingRpcClient,
    SingleFlight,
)
from repro.util.encoding import canonical_bytes
from tests.proxy.conftest import ELEMENTS

TARGET = Endpoint(host="replica.example", service="objectserver")


class TestSingleFlight:
    def test_waiters_get_the_leaders_object(self):
        flight = SingleFlight()
        gate = threading.Event()
        entered = threading.Barrier(3)
        calls = []

        def fetch():
            calls.append(1)
            gate.wait(timeout=5.0)
            return {"payload": "hot"}

        results = [None] * 3

        def worker(i):
            entered.wait(timeout=5.0)
            results[i] = flight.do("oid-7", fetch)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(3)]
        for t in threads:
            t.start()
        # All three are inside do(); exactly one runs fetch.
        while flight.leaders + flight.waiters < 3:
            pass
        gate.set()
        for t in threads:
            t.join(timeout=5.0)
        assert len(calls) == 1
        assert results[0] is results[1] is results[2]
        assert flight.leaders == 1
        assert flight.waiters == 2

    def test_exception_propagates_to_waiters(self):
        flight = SingleFlight()
        gate = threading.Event()

        def fetch():
            gate.wait(timeout=5.0)
            raise TransportError("replica down")

        errors = []

        def worker():
            try:
                flight.do("k", fetch)
            except TransportError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        while flight.leaders + flight.waiters < 2:
            pass
        gate.set()
        for t in threads:
            t.join(timeout=5.0)
        assert len(errors) == 2

    def test_key_released_after_landing(self):
        flight = SingleFlight()
        calls = []
        for _ in range(2):
            flight.do("k", lambda: calls.append(1))
        assert len(calls) == 2  # dedupes in-flight work only
        assert flight.leaders == 2
        assert flight.waiters == 0

    def test_waiter_counter_metric(self):
        metrics = MetricsRegistry()
        flight = SingleFlight(metrics=metrics)
        gate = threading.Event()
        threads = [
            threading.Thread(target=lambda: flight.do("k", lambda: gate.wait(5.0)))
            for _ in range(3)
        ]
        for t in threads:
            t.start()
        while flight.leaders + flight.waiters < 3:
            pass
        gate.set()
        for t in threads:
            t.join(timeout=5.0)
        assert metrics.counter("coalesce_waiters_total").value == 2.0


class FakeInner:
    """Inner RPC client that records traffic and can fail chosen ops."""

    def __init__(self):
        self.transport = object()
        self.direct_ops = []
        self.waves = []
        self.fail_ops = set()
        self.counters = "inner-counters"

    def call(self, target, op, **args):
        self.direct_ops.append(op)
        return ("wire", op, tuple(sorted(args.items())))

    def call_many(self, calls, window=8):
        self.waves.append(list(calls))
        outcomes = []
        for call in calls:
            if call.op in self.fail_ops:
                outcomes.append(BatchOutcome(call=call, error=TransportError("down")))
            else:
                outcomes.append(
                    BatchOutcome(
                        call=call,
                        value=("wire", call.op, tuple(sorted(call.args.items()))),
                    )
                )
        return outcomes


def get_element(name):
    return BatchCall(TARGET, "globedoc.get_element", {"name": name})


class TestPrefetchingRpcClient:
    def test_parked_result_served_then_consumed(self):
        inner = FakeInner()
        client = PrefetchingRpcClient(inner)
        assert client.prefetch([get_element("a")]) == 1
        value = client.call(TARGET, "globedoc.get_element", name="a")
        assert value == ("wire", "globedoc.get_element", (("name", "a"),))
        assert client.counters_pipeline.prefetch_hits == 1
        # Pop-on-use: the second identical call goes to the wire.
        client.call(TARGET, "globedoc.get_element", name="a")
        assert inner.direct_ops == ["globedoc.get_element"]
        assert client.counters_pipeline.prefetch_misses == 1

    def test_peek_does_not_consume(self):
        client = PrefetchingRpcClient(FakeInner())
        client.prefetch([get_element("a")])
        first = client.peek(TARGET, "globedoc.get_element", name="a")
        second = client.peek(TARGET, "globedoc.get_element", name="a")
        assert first is second is not None
        assert len(client) == 1

    def test_clear_drops_everything(self):
        client = PrefetchingRpcClient(FakeInner())
        client.prefetch([get_element("a"), get_element("b")])
        assert len(client) == 2
        client.clear()
        assert len(client) == 0
        assert client.peek(TARGET, "globedoc.get_element", name="a") is None

    def test_duplicate_calls_coalesce_in_one_wave(self):
        inner = FakeInner()
        metrics = MetricsRegistry()
        client = PrefetchingRpcClient(inner, metrics=metrics)
        parked = client.prefetch(
            [get_element("hot"), get_element("hot"), get_element("hot")]
        )
        assert parked == 1
        assert len(inner.waves[0]) == 1  # one RPC on the wire
        assert client.counters_pipeline.coalesced_calls == 2
        assert metrics.counter("coalesce_hits_total").value == 2.0

    def test_failures_are_not_parked(self):
        inner = FakeInner()
        inner.fail_ops.add("globedoc.get_element")
        client = PrefetchingRpcClient(inner)
        assert client.prefetch([get_element("a")]) == 0
        assert len(client) == 0
        # The replay re-issues the call and sees the failure first-hand.
        inner.fail_ops.clear()
        client.call(TARGET, "globedoc.get_element", name="a")
        assert inner.direct_ops == ["globedoc.get_element"]

    def test_idempotent_miss_goes_through_single_flight(self):
        client = PrefetchingRpcClient(FakeInner())
        client.call(TARGET, "globedoc.get_element", name="a")
        assert client._flight.leaders == 1
        client.call(TARGET, "admin.execute", command="x")
        assert client._flight.leaders == 1  # writes bypass coalescing

    def test_rpc_client_surface_forwards(self):
        inner = FakeInner()
        client = PrefetchingRpcClient(inner)
        assert client.transport is inner.transport
        assert client.counters == "inner-counters"
        outcomes = client.call_many([get_element("a")])
        assert outcomes[0].ok


#: Python-equal scalars that encode differently; a lone value is its own group.
_EQUAL_GROUPS = ([0, False, 0.0, -0.0], [1, True, 1.0])
_scalar_args = st.sampled_from(
    [value for group in _EQUAL_GROUPS for value in group] + ["", "1", b"", b"1", None]
)
_arg_values = st.one_of(
    _scalar_args,
    st.lists(_scalar_args, max_size=2),
    st.dictionaries(st.sampled_from(["a", "b"]), _scalar_args, max_size=2),
)
_arg_maps = st.dictionaries(
    st.sampled_from(["name", "zone_path", "x"]), _arg_values, min_size=1, max_size=3
)


def _look_alike(value):
    """Values equal to *value* in Python: same shape, each scalar swapped
    for any member of its equality group. Arg maps of different names or
    shapes never share a key, so these are the pairs worth drawing."""
    if isinstance(value, list):
        return st.tuples(*map(_look_alike, value)).map(list)
    if isinstance(value, dict):
        return st.fixed_dictionaries({k: _look_alike(v) for k, v in value.items()})
    group = next((g for g in _EQUAL_GROUPS if value in g), [value])
    return st.sampled_from(group)


class TestCallKey:
    """The prefetch table's key: a false hit would replay another call's
    bytes, so the key may be finer than the canonical encoding of the
    arguments but never coarser."""

    @given(st.data())
    @settings(max_examples=300)
    def test_equal_keys_imply_equal_canonical_bytes(self, data):
        a = data.draw(_arg_maps)
        b = data.draw(_look_alike(a))
        key = PrefetchingRpcClient._call_key
        if key(TARGET, "op", a) == key(TARGET, "op", b):
            assert canonical_bytes(a) == canonical_bytes(b)

    @given(_arg_maps)
    def test_equal_args_give_equal_keys(self, args):
        key = PrefetchingRpcClient._call_key
        reordered = dict(reversed(list(args.items())))
        assert key(TARGET, "op", args) == key(TARGET, "op", reordered)

    def test_scalar_args_are_not_encoded(self, monkeypatch):
        import repro.proxy.pipeline as pipeline

        def refuse(value):
            raise AssertionError("scalar args encoded")

        monkeypatch.setattr(pipeline, "canonical_bytes", refuse)
        key = PrefetchingRpcClient._call_key(TARGET, "op", {"name": "a", "n": 1, "b": b"x"})
        assert key[2] == (("b", bytes, b"x"), ("n", int, 1), ("name", str, "a"))


@pytest.fixture
def pipelined(testbed, published):
    return testbed.client_stack("sporty.cs.vu.nl", pipeline=PipelineConfig())


class TestAccessScheduler:
    def test_pipelined_matches_sequential(self, stack, published, pipelined):
        urls = [published.url("index.html"), published.url("img/logo.png")]
        expected = stack.proxy.handle_many(urls)
        actual = pipelined.proxy.handle_many(urls)
        for want, got in zip(expected, actual):
            assert got.status == want.status == 200
            assert got.content == want.content
            assert got.content_type == want.content_type

    def test_pipeline_phases_are_spanned(self, testbed, published, ring):
        """Scheduling, the prefetch wave and the batched verify (into a
        verification cache) each close a span of their own."""
        traced = testbed.client_stack(
            "sporty.cs.vu.nl",
            verification_cache=VerificationCache(),
            pipeline=PipelineConfig(),
            tracer=Tracer(clock=testbed.clock, sinks=(ring,)),
        )
        responses = traced.proxy.handle_many([published.url(name) for name in ELEMENTS])
        assert all(response.ok for response in responses)
        for name in ("pipeline.schedule", "pipeline.prefetch", "pipeline.batch_verify"):
            assert ring.named(name), name

    def test_duplicate_urls_share_one_response_object(self, published, pipelined):
        url = published.url("index.html")
        before = pipelined.scheduler.counters.coalesced_responses
        responses = pipelined.proxy.handle_many([url, url, url])
        assert responses[0] is responses[1] is responses[2]
        assert responses[0].content == ELEMENTS["index.html"]
        assert pipelined.scheduler.counters.coalesced_responses - before == 2

    def test_non_globedoc_urls_pass_through(self, published, pipelined):
        responses = pipelined.proxy.handle_many(
            [
                "http://ginger.cs.vu.nl/ghost",
                published.url("index.html"),
                "ftp://weird",
            ]
        )
        assert responses[0].status == 404
        assert responses[1].status == 200
        assert responses[2].status == 400

    def test_speculation_hits_on_second_batch(self, published, pipelined):
        scheduler = pipelined.scheduler
        url = published.url("index.html")
        pipelined.proxy.handle_many([url])  # learns the name → OID hint
        pipelined.proxy.drop_all_sessions()
        before = scheduler.counters.speculations
        responses = pipelined.proxy.handle_many([url])
        assert responses[0].status == 200
        assert scheduler.counters.speculations == before + 1
        assert scheduler.counters.mispredictions == 0

    def test_stale_hint_is_repaired(self, testbed, published, pipelined):
        from repro.globedoc.element import PageElement
        from repro.globedoc.owner import DocumentOwner
        from tests.conftest import fast_keys

        decoy_owner = DocumentOwner(
            "vu.nl/decoy", keys=fast_keys(), clock=testbed.clock
        )
        decoy_owner.put_element(PageElement("index.html", b"<html>decoy</html>"))
        decoy = testbed.publish(decoy_owner)

        scheduler = pipelined.scheduler
        url = published.url("index.html")
        name = HybridUrl.parse(url).object_name
        pipelined.proxy.handle_many([url])
        pipelined.proxy.drop_all_sessions()
        scheduler._oid_hints[name] = decoy.owner.oid  # poison the hint
        before = scheduler.counters.mispredictions
        responses = pipelined.proxy.handle_many([url])
        assert responses[0].status == 200
        assert responses[0].content == ELEMENTS["index.html"]  # not the decoy
        assert scheduler.counters.mispredictions == before + 1
        # The repaired hint now points at the real object.
        assert scheduler._oid_hints[name] == published.owner.oid

    def test_multi_element_batch_prefetches_once_per_element(
        self, published, pipelined
    ):
        pipelined.proxy.drop_all_sessions()
        urls = [
            published.url("index.html"),
            published.url("img/logo.png"),
            published.url("index.html"),
        ]
        responses = pipelined.proxy.handle_many(urls)
        assert [r.status for r in responses] == [200, 200, 200]
        assert responses[0] is responses[2]
        assert responses[1].content == ELEMENTS["img/logo.png"]
