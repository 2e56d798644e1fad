"""Retry/backoff RPC: idempotent-only retries that always fail closed."""

from __future__ import annotations

import random

import pytest

from repro.errors import (
    AuthenticityError,
    RpcError,
    SecurityError,
    TransportError,
)
from repro.net.address import Endpoint
from repro.harness.experiment import Testbed
from repro.net.health import ReplicaHealthTracker
from repro.net.message import Request
from repro.net.retry import (
    IDEMPOTENT_PREFIXES,
    RetryingRpcClient,
    RetryPolicy,
    is_idempotent,
)
from repro.obs import RingBufferSink, Tracer
from repro.sim.clock import SimClock
from tests.test_module_census import rpc_ops

TARGET = Endpoint(host="replica.example", service="objectserver")


class ScriptedClient:
    """An RpcClient stand-in that fails a scripted number of times."""

    def __init__(self, failures, value="payload"):
        self.failures = list(failures)  # exceptions raised, in order
        self.value = value
        self.calls = 0
        self.transport = object()

    def call(self, target, op, **args):
        self.calls += 1
        if self.failures:
            raise self.failures.pop(0)
        return self.value


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=10.0, jitter=0.0)
        rng = random.Random(0)
        delays = [policy.delay_for(a, rng) for a in (1, 2, 3, 4)]
        assert delays == [0.1, 0.2, 0.4, 0.8]

    def test_backoff_capped(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=10.0, max_delay=2.5, jitter=0.0)
        assert policy.delay_for(5, random.Random(0)) == 2.5

    def test_jitter_is_seeded_and_bounded(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=1.0, jitter=0.2)
        a = [policy.delay_for(1, random.Random(7)) for _ in range(3)]
        b = [policy.delay_for(1, random.Random(7)) for _ in range(3)]
        assert a == b  # same seed, same jitter
        for delay in a:
            assert 0.8 <= delay <= 1.2

    def test_idempotency_classification(self):
        assert is_idempotent("globedoc.get_element")
        assert is_idempotent("naming.resolve")
        assert is_idempotent("location.lookup_all")
        assert is_idempotent("revocation.fetch")
        assert is_idempotent("versioning.fetch")
        assert not is_idempotent("admin.execute")
        assert not is_idempotent("location.insert")
        assert not is_idempotent("revocation.publish")
        assert not is_idempotent("versioning.publish_delta")
        assert not is_idempotent("ssl.key_exchange")

    def test_every_prefix_names_a_registered_op(self):
        """A prefix no ``@rpc_method`` serves is a leftover of a deleted
        surface; it would silently make a future op of that name retried."""
        ops = rpc_ops()
        assert len(ops) > 20  # the walk really found the RPC surface
        for prefix in IDEMPOTENT_PREFIXES:
            assert any(op.startswith(prefix) for op in ops), prefix


class TestRetryingRpcClient:
    def policy(self, **kwargs):
        kwargs.setdefault("max_attempts", 3)
        kwargs.setdefault("base_delay", 0.1)
        kwargs.setdefault("jitter", 0.0)
        return RetryPolicy(**kwargs)

    def test_operational_failure_retried_to_success(self):
        inner = ScriptedClient([TransportError("drop"), TransportError("drop")])
        clock = SimClock()
        client = RetryingRpcClient(inner, self.policy(), clock=clock)
        assert client.call(TARGET, "globedoc.get_element", name="x") == "payload"
        assert inner.calls == 3
        assert client.counters.retries == 2
        assert client.counters.backoff_seconds == pytest.approx(0.3)

    def test_backoff_charged_to_sim_clock(self):
        inner = ScriptedClient([TransportError("drop")])
        clock = SimClock()
        client = RetryingRpcClient(inner, self.policy(), clock=clock)
        client.call(TARGET, "globedoc.get_element")
        assert clock.now() == pytest.approx(0.1)

    def test_attempts_exhausted_reraises(self):
        inner = ScriptedClient([TransportError(f"drop {i}") for i in range(5)])
        client = RetryingRpcClient(inner, self.policy(), clock=SimClock())
        with pytest.raises(TransportError, match="drop 2"):
            client.call(TARGET, "globedoc.get_element")
        assert inner.calls == 3
        # The third failure raised: two retries, no third backoff.
        assert client.counters.retries == 2
        assert client.counters.backoff_seconds == pytest.approx(0.3)

    def test_security_error_never_retried(self):
        """Fail closed: a violation is a replica property, not weather."""
        inner = ScriptedClient([AuthenticityError("tampered")])
        client = RetryingRpcClient(inner, self.policy(), clock=SimClock())
        with pytest.raises(SecurityError):
            client.call(TARGET, "globedoc.get_element")
        assert inner.calls == 1
        assert client.counters.retries == 0

    def test_non_idempotent_never_retried(self):
        inner = ScriptedClient([TransportError("drop")])
        client = RetryingRpcClient(inner, self.policy(), clock=SimClock())
        with pytest.raises(TransportError):
            client.call(TARGET, "admin.execute", command="create_replica")
        assert inner.calls == 1

    def test_rpc_error_is_retryable_operationally(self):
        inner = ScriptedClient([RpcError("unknown operation")])
        client = RetryingRpcClient(inner, self.policy(), clock=SimClock())
        assert client.call(TARGET, "globedoc.get_element") == "payload"
        assert inner.calls == 2

    def test_health_tracker_sees_every_attempt(self):
        inner = ScriptedClient([TransportError("d1"), TransportError("d2")])
        clock = SimClock()
        health = ReplicaHealthTracker(clock=clock, failure_threshold=3)
        client = RetryingRpcClient(inner, self.policy(), clock=clock, health=health)
        client.call(TARGET, "globedoc.get_element")
        record = health.record(str(TARGET))
        assert record.total_failures == 2
        assert record.total_successes == 1
        assert record.consecutive_failures == 0  # reset by final success

    def test_transport_passthrough(self):
        inner = ScriptedClient([])
        client = RetryingRpcClient(inner, self.policy(), clock=SimClock())
        assert client.transport is inner.transport


class DropFirst:
    """A client transport that drops the first frame carrying *op*."""

    def __init__(self, inner, op: str) -> None:
        self.inner, self.op = inner, op
        self.dropped = False

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def request(self, endpoint, frame: bytes) -> bytes:
        if not self.dropped and Request.from_bytes(frame).op == self.op:
            self.dropped = True
            raise TransportError(f"dropped {self.op}")
        return self.inner.request(endpoint, frame)


class TestOnTheStack:
    """A lost read of signed state costs a retry, whichever check sent
    it: the revocation check's feed pull is retried like an element
    fetch, not turned into a 403."""

    @pytest.mark.parametrize("op", ["revocation.fetch", "globedoc.get_element"])
    def test_a_dropped_read_is_retried(self, op):
        testbed = Testbed()
        owner = testbed.document_owner("vu.nl/retried", {"index.html": b"<p>hi</p>"})
        published = testbed.publish(owner)
        transport = DropFirst(testbed.transport_for("sporty.cs.vu.nl"), op)
        stack = testbed.client_stack(
            "sporty.cs.vu.nl",
            transport=transport,
            retry_policy=RetryPolicy(max_attempts=3, jitter=0.0),
            revocation_max_staleness=60.0,
        )
        response = stack.proxy.handle(published.url("index.html"))
        assert transport.dropped
        assert (response.status, stack.rpc.counters.retries) == (200, 1)


class TestClientSeededJitter:
    """The jitter stream belongs to the client: ``RetryPolicy.seed`` alone
    decides it, with no generator passed in from outside."""

    JITTER = 0.2
    BASE = [0.1, 0.2, 0.4, 0.8, 1.6]  # base_delay * 2**(attempt - 1)

    def backoffs(self, seed):
        clock = SimClock()
        sink = RingBufferSink()
        client = RetryingRpcClient(
            ScriptedClient([TransportError(f"drop {i}") for i in range(5)]),
            RetryPolicy(max_attempts=6, base_delay=0.1, jitter=self.JITTER, seed=seed),
            clock=clock,
            tracer=Tracer(clock=clock, sinks=(sink,)),
        )
        client.call(TARGET, "globedoc.get_element")
        return [
            span.attributes["backoff_s"]
            for span in sink.named("rpc.attempt")
            if "backoff_s" in span.attributes
        ]

    def test_same_seed_same_backoffs(self):
        assert self.backoffs(seed=7) == self.backoffs(seed=7)

    def test_other_seed_other_backoffs(self):
        assert self.backoffs(seed=7) != self.backoffs(seed=8)

    def test_backoffs_within_jitter(self):
        delays = self.backoffs(seed=7)
        assert len(delays) == len(self.BASE)
        for delay, base in zip(delays, self.BASE):
            assert base * (1 - self.JITTER) <= delay <= base * (1 + self.JITTER)
