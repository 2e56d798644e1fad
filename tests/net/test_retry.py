"""Retry/backoff RPC: idempotent-only retries that always fail closed."""

from __future__ import annotations

import ast
import pathlib
import random

import pytest

import repro
from repro.errors import (
    AuthenticityError,
    RpcError,
    SecurityError,
    TransportError,
)
from repro.net.address import Endpoint
from repro.net.health import ReplicaHealthTracker
from repro.net.retry import (
    IDEMPOTENT_PREFIXES,
    RetryingRpcClient,
    RetryPolicy,
    is_idempotent,
)
from repro.obs import RingBufferSink, Tracer
from repro.sim.clock import SimClock

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
        assert not is_idempotent("admin.execute")
        assert not is_idempotent("location.insert")
        assert not is_idempotent("ssl.key_exchange")

    def test_every_prefix_names_a_registered_op(self):
        """A prefix no ``@rpc_method`` serves is a leftover of a deleted
        surface; it would silently make a future op of that name retried."""
        ops = {
            decorator.args[0].value
            for path in pathlib.Path(repro.__file__).parent.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.FunctionDef)
            for decorator in node.decorator_list
            if isinstance(decorator, ast.Call)
            and getattr(decorator.func, "id", None) == "rpc_method"
        }
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
        assert client.counters.giveups == 1

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


class ScriptedBatchClient:
    """Inner client whose ``call_many`` fails scripted (round, op) slots."""

    def __init__(self, fail_rounds):
        # fail_rounds: {round_number: {op: exception}} — op slots that
        # fail in that round; everything else succeeds with its op name.
        self.fail_rounds = fail_rounds
        self.rounds = 0
        self.seen = []  # ops per round
        self.transport = object()

    def call_many(self, calls, window=8):
        from repro.net.rpc import BatchOutcome

        self.rounds += 1
        self.seen.append([call.op for call in calls])
        failures = self.fail_rounds.get(self.rounds, {})
        outcomes = []
        for call in calls:
            error = failures.get(call.op)
            if error is not None:
                outcomes.append(BatchOutcome(call=call, error=error))
            else:
                outcomes.append(BatchOutcome(call=call, value=call.op))
        return outcomes


def batch(op, **args):
    from repro.net.rpc import BatchCall

    return BatchCall(TARGET, op, args)


class TestCallManyRetries:
    def test_only_failed_slots_reissued(self):
        inner = ScriptedBatchClient(
            {1: {"globedoc.get_element": TransportError("drop")}}
        )
        client = RetryingRpcClient(
            inner,
            RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0),
            clock=SimClock(),
        )
        outcomes = client.call_many(
            [batch("globedoc.get_public_key"), batch("globedoc.get_element")]
        )
        assert [o.value for o in outcomes] == [
            "globedoc.get_public_key",
            "globedoc.get_element",
        ]
        assert inner.seen == [
            ["globedoc.get_public_key", "globedoc.get_element"],
            ["globedoc.get_element"],
        ]
        assert client.counters.retries == 1

    def test_round_backoff_advances_clock_once(self):
        clock = SimClock()
        inner = ScriptedBatchClient(
            {
                1: {
                    "globedoc.get_element": TransportError("a"),
                    "globedoc.get_public_key": TransportError("b"),
                }
            }
        )
        client = RetryingRpcClient(
            inner,
            RetryPolicy(max_attempts=2, base_delay=0.5, jitter=0.0),
            clock=clock,
        )
        client.call_many(
            [batch("globedoc.get_public_key"), batch("globedoc.get_element")]
        )
        # One shared wait per round (the waits overlap like the calls),
        # not one per failed slot.
        assert clock.now() == pytest.approx(0.5)

    def test_security_error_never_reissued(self):
        inner = ScriptedBatchClient(
            {1: {"globedoc.get_element": AuthenticityError("tampered")}}
        )
        client = RetryingRpcClient(
            inner,
            RetryPolicy(max_attempts=5, base_delay=0.01, jitter=0.0),
            clock=SimClock(),
        )
        outcomes = client.call_many([batch("globedoc.get_element")])
        assert inner.rounds == 1  # failed closed, no retry round
        assert isinstance(outcomes[0].error, AuthenticityError)

    def test_non_idempotent_not_reissued(self):
        inner = ScriptedBatchClient({1: {"admin.execute": TransportError("x")}})
        client = RetryingRpcClient(
            inner,
            RetryPolicy(max_attempts=4, base_delay=0.01, jitter=0.0),
            clock=SimClock(),
        )
        outcomes = client.call_many([batch("admin.execute")])
        assert inner.rounds == 1
        assert isinstance(outcomes[0].error, TransportError)
        assert client.counters.giveups == 1

    def test_attempts_exhausted_gives_up(self):
        inner = ScriptedBatchClient(
            {
                1: {"globedoc.get_element": TransportError("1")},
                2: {"globedoc.get_element": TransportError("2")},
            }
        )
        client = RetryingRpcClient(
            inner,
            RetryPolicy(max_attempts=2, base_delay=0.01, jitter=0.0),
            clock=SimClock(),
        )
        outcomes = client.call_many([batch("globedoc.get_element")])
        assert inner.rounds == 2
        assert isinstance(outcomes[0].error, TransportError)
        assert client.counters.giveups == 1

    def test_health_tracker_sees_batch_outcomes(self):
        health = ReplicaHealthTracker(clock=SimClock())
        inner = ScriptedBatchClient(
            {1: {"globedoc.get_element": TransportError("x")}}
        )
        client = RetryingRpcClient(
            inner,
            RetryPolicy(max_attempts=2, base_delay=0.01, jitter=0.0),
            clock=SimClock(),
            health=health,
        )
        client.call_many(
            [batch("globedoc.get_public_key"), batch("globedoc.get_element")]
        )
        record = health.record(str(TARGET))
        assert record.total_failures >= 1
        assert record.total_successes >= 2
