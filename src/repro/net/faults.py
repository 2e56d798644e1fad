"""Fault injection for transports.

Wraps any client transport and injects failures according to a seeded
schedule: dropped requests (raising
:class:`~repro.errors.TransportError`), corrupted response frames, or
both. Used by the resilience test-suite to show that infrastructure
flakiness degrades GlobeDoc accesses into clean errors and failovers —
never into accepted-but-wrong content — and available to downstream
users for their own chaos testing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import TransportError
from repro.net.address import Endpoint
from repro.net.transport import TransferStats, Transport

__all__ = ["FaultPlan", "FlakyTransport"]


@dataclass(frozen=True)
class FaultPlan:
    """Probabilities of each fault per request (independent draws)."""

    drop_probability: float = 0.0
    corrupt_probability: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("drop_probability", "corrupt_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


class FlakyTransport:
    """A transport that sometimes drops or corrupts traffic."""

    def __init__(self, inner: Transport, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self.stats = TransferStats()
        self.drops = 0
        self.corruptions = 0

    def request(self, endpoint: Endpoint, frame: bytes) -> bytes:
        if self.plan.drop_probability and self._rng.random() < self.plan.drop_probability:
            self.drops += 1
            # The attempt still went on the wire: account for it before
            # raising, or chaos runs undercount exactly when it matters.
            self.stats.record(sent=len(frame), received=0)
            raise TransportError(f"injected drop of request to {endpoint}")
        response = self.inner.request(endpoint, frame)
        if (
            self.plan.corrupt_probability
            and self._rng.random() < self.plan.corrupt_probability
            and response
        ):
            self.corruptions += 1
            # Flip a byte somewhere in the frame body.
            index = self._rng.randrange(len(response))
            corrupted = bytearray(response)
            corrupted[index] ^= 0xFF
            response = bytes(corrupted)
        self.stats.record(sent=len(frame), received=len(response))
        return response
