"""The concurrent access pipeline: coalescing, prefetch, waves."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.verifycache import VerificationCache
from repro.errors import TransportError
from repro.net.address import Endpoint
from repro.net.rpc import BatchCall, BatchOutcome
from repro.obs import Tracer
from repro.proxy.pipeline import PipelineConfig, PrefetchingRpcClient
from repro.util.encoding import canonical_bytes
from tests.proxy.conftest import ELEMENTS

TARGET = Endpoint(host="replica.example", service="objectserver")


class FakeInner:
    """Inner RPC client that records traffic and can fail chosen ops."""

    def __init__(self):
        self.transport = object()
        self.direct_ops = []
        self.waves = []
        self.fail_ops = set()

    def call(self, target, op, **args):
        self.direct_ops.append(op)
        return ("wire", op, tuple(sorted(args.items())))

    def call_many(self, calls):
        self.waves.append(list(calls))
        outcomes = []
        for call in calls:
            if call.op in self.fail_ops:
                outcomes.append(BatchOutcome(error=TransportError("down")))
            else:
                outcomes.append(
                    BatchOutcome(value=("wire", call.op, tuple(sorted(call.args.items()))))
                )
        return outcomes


def get_element(name):
    return BatchCall(TARGET, "globedoc.get_element", {"name": name})


class TestPrefetchingRpcClient:
    def test_parked_result_served_then_consumed(self):
        inner = FakeInner()
        client = PrefetchingRpcClient(inner)
        assert client.prefetch([get_element("a")]) == [True]
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
        first = client.peek(get_element("a"))
        second = client.peek(get_element("a"))
        assert first is second is not None
        assert len(client) == 1

    def test_clear_drops_everything(self):
        client = PrefetchingRpcClient(FakeInner())
        client.prefetch([get_element("a"), get_element("b")])
        assert len(client) == 2
        client.clear()
        assert len(client) == 0
        assert client.peek(get_element("a")) is None

    def test_duplicate_calls_coalesce_in_one_wave(self):
        inner = FakeInner()
        client = PrefetchingRpcClient(inner)
        parked = client.prefetch(
            [get_element("hot"), get_element("hot"), get_element("hot")]
        )
        assert parked == [True, True, True]  # one parked answer, shared
        assert len(client) == 1
        assert len(inner.waves[0]) == 1  # one RPC on the wire
        assert client.counters_pipeline.coalesced_calls == 2

    def test_failures_are_not_parked(self):
        inner = FakeInner()
        inner.fail_ops.add("globedoc.get_element")
        client = PrefetchingRpcClient(inner)
        assert client.prefetch([get_element("a"), get_element("a")]) == [False, False]
        assert len(client) == 0
        # The replay re-issues the call and sees the failure first-hand.
        inner.fail_ops.clear()
        client.call(TARGET, "globedoc.get_element", name="a")
        assert inner.direct_ops == ["globedoc.get_element"]

    def test_rpc_client_surface_forwards(self):
        inner = FakeInner()
        client = PrefetchingRpcClient(inner)
        assert client.transport is inner.transport


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

    def test_parked_table_is_cleared_when_a_phase_raises(
        self, published, pipelined, monkeypatch
    ):
        """The waves park answers before the replay runs, so the table is
        cleared on every exit of the batch, not only after the replay."""
        scheduler = pipelined.scheduler

        def fail(plans):
            raise RuntimeError("verify phase failed")

        monkeypatch.setattr(scheduler, "_verify_phase", fail)
        with pytest.raises(RuntimeError):
            pipelined.proxy.handle_many([published.url("index.html")])
        assert scheduler.counters.prefetched > 0
        assert len(scheduler.prefetcher) == 0
