"""Retry with exponential backoff for operational RPC failures.

The paper's availability argument (§3.1.2: a broken or malicious
replica causes "at most denial of service") only holds if the client
stack actually degrades infrastructure failures into retries and
failovers instead of surfacing them. :class:`RetryingRpcClient` is the
first line of that defence: it re-issues *idempotent* calls that failed
*operationally* (:class:`~repro.errors.TransportError`,
:class:`~repro.errors.RpcError`), waiting an exponentially growing,
seeded-jitter delay between attempts.

Two failure classes are deliberately never retried here:

* **Security violations** (:class:`~repro.errors.SecurityError` and
  subclasses) fail closed immediately — retrying a replica that served
  tampered data cannot make the data genuine, and hammering it would
  only delay the session-level failover to a different replica.
* **Non-idempotent operations** (admin commands, location-tree writes,
  SSL channel setup): a retry could double-apply a mutation whose first
  attempt succeeded but whose response was lost.

Waits go through the injected clock: under a
:class:`~repro.sim.clock.SimClock` the backoff advances simulated time
(so experiments charge it), under a real clock it sleeps.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from repro.errors import RpcError, SecurityError, TransportError
from repro.net.rpc import BatchCall, BatchOutcome, DEFAULT_WINDOW
from repro.obs import NOOP_TRACER
from repro.sim.clock import Clock, RealClock

__all__ = [
    "RetryPolicy",
    "RetryCounters",
    "RetryingRpcClient",
    "is_idempotent",
    "IDEMPOTENT_PREFIXES",
]

#: Operations safe to re-issue: pure reads of replicated/signed state.
#: Everything else (``admin.*``, ``location.insert/delete/move``,
#: ``ssl.*`` channel setup, …) is conservatively treated as mutating.
IDEMPOTENT_PREFIXES = (
    "globedoc.",
    "naming.",
    "location.lookup",
    "http.get",
    "gemini.get",
)


def is_idempotent(op: str) -> bool:
    """True when *op* is a read-only operation safe to retry."""
    return op.startswith(IDEMPOTENT_PREFIXES)


@dataclass(frozen=True)
class RetryPolicy:
    """How often and how patiently to retry one RPC.

    ``max_attempts`` bounds total tries (1 = no retry). Delays grow as
    ``base_delay * multiplier**(attempt-1)``, capped at ``max_delay``
    and spread by ``jitter`` (a ±fraction drawn from the seeded RNG, so
    a fleet of clients retrying the same dead replica decorrelates
    deterministically).
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay_for(self, attempt: int, rng) -> float:
        """Backoff before retry number *attempt* (1-based failed tries).

        *rng* supplies ``random()`` in [0, 1) — the client's own
        ``random.Random(seed)``, so the jitter stream is the policy's.
        """
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        delay = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        if self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, delay)


@dataclass
class RetryCounters:
    """Cumulative resilience accounting one retrying client exposes."""

    retries: int = 0
    giveups: int = 0
    backoff_seconds: float = 0.0

    def reset(self) -> None:
        self.retries = 0
        self.giveups = 0
        self.backoff_seconds = 0.0


class RetryingRpcClient:
    """An :class:`~repro.net.rpc.RpcClient` drop-in that retries.

    Duck-types the plain client (``call`` + ``transport``), so binders,
    resolvers, location clients and LRs take it unchanged. An optional
    :class:`~repro.net.health.ReplicaHealthTracker` observes every
    attempt's outcome per target, feeding the binder's address ordering.
    """

    def __init__(
        self,
        inner,
        policy: Optional[RetryPolicy] = None,
        clock: Optional[Clock] = None,
        health=None,
        tracer=None,
    ) -> None:
        self.inner = inner
        self.policy = policy if policy is not None else RetryPolicy()
        self.clock = clock if clock is not None else RealClock()
        self.health = health
        self._rng = random.Random(self.policy.seed)
        self.counters = RetryCounters()
        #: Records one ``rpc.attempt`` span per try; a failed-but-retried
        #: attempt carries the chosen ``backoff_s`` as an attribute, so a
        #: trace shows exactly where a flaky access's time went.
        self.tracer = tracer if tracer is not None else NOOP_TRACER

    @property
    def transport(self):
        return self.inner.transport

    def call(self, target, op: str, **args: Any) -> Any:
        policy = self.policy
        retryable = is_idempotent(op)
        attempt = 0
        while True:
            attempt += 1
            delay = 0.0
            with self.tracer.span(
                "rpc.attempt", op=op, target=str(target), attempt=attempt
            ) as span:
                try:
                    value = self.inner.call(target, op, **args)
                except SecurityError:
                    # Fail closed: a security violation is a property of
                    # the replica, not of the network — the session-level
                    # failover (different replica) is the only sound
                    # retry. (The span records the error on re-raise.)
                    self._note_failure(target)
                    raise
                except (TransportError, RpcError) as exc:
                    span.mark_error(exc)
                    self._note_failure(target)
                    if not retryable or attempt >= policy.max_attempts:
                        self.counters.giveups += 1
                        raise
                    delay = policy.delay_for(attempt, self._rng)
                    span.set_attribute("backoff_s", delay)
                else:
                    self._note_success(target)
                    return value
            # The backoff wait happens outside the failed attempt's span
            # (attempt spans measure the try, not the patience).
            self._wait(delay)
            self.counters.retries += 1
            self.counters.backoff_seconds += delay

    def call_many(
        self, calls: Sequence[BatchCall], window: int = DEFAULT_WINDOW
    ) -> List[BatchOutcome]:
        """Pipelined batch with round-based retries.

        Round 1 issues every call through the inner client's
        ``call_many``; failed slots that are retryable (idempotent op,
        operational error, attempts remaining) go into the
        next round after *one* shared backoff wait — the max of the
        per-call delays, since the waits would overlap in flight just
        like the calls do. Security errors fail closed per slot and are
        never re-issued; every slot's outcome feeds the health tracker
        exactly as single calls do.
        """
        policy = self.policy
        calls = list(calls)
        results: List[Optional[BatchOutcome]] = [None] * len(calls)
        pending = list(enumerate(calls))
        attempt = 0
        while pending:
            attempt += 1
            with self.tracer.span(
                "rpc.attempt", op="<batch>", calls=len(pending), attempt=attempt
            ) as span:
                outcomes = self.inner.call_many(
                    [call for _, call in pending], window=window
                )
                next_pending = []
                round_delay = 0.0
                for (index, call), outcome in zip(pending, outcomes):
                    if outcome.ok:
                        self._note_success(call.target)
                        results[index] = outcome
                        continue
                    error = outcome.error
                    if isinstance(error, SecurityError):
                        # Fail closed, never retried (see call()).
                        self._note_failure(call.target)
                        results[index] = outcome
                        continue
                    if not isinstance(error, (TransportError, RpcError)):
                        results[index] = outcome
                        continue
                    self._note_failure(call.target)
                    if is_idempotent(call.op) and attempt < policy.max_attempts:
                        next_pending.append((index, call))
                        round_delay = max(round_delay, policy.delay_for(attempt, self._rng))
                    else:
                        self.counters.giveups += 1
                        results[index] = outcome
                span.set_attribute("retrying", len(next_pending))
                if next_pending:
                    span.set_attribute("backoff_s", round_delay)
            pending = next_pending
            if pending:
                self._wait(round_delay)
                self.counters.retries += len(pending)
                self.counters.backoff_seconds += round_delay
        return [outcome for outcome in results if outcome is not None]

    # ------------------------------------------------------------------

    def _wait(self, delay: float) -> None:
        if delay <= 0:
            return
        advance = getattr(self.clock, "advance", None)
        if advance is not None:
            advance(delay)  # SimClock: the experiment pays for the wait
        else:  # pragma: no cover - real-time path exercised by TCP runs
            time.sleep(delay)

    def _note_failure(self, target) -> None:
        if self.health is not None:
            self.health.record_failure(str(target))

    def _note_success(self, target) -> None:
        if self.health is not None:
            self.health.record_success(str(target))
