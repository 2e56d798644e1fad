"""Fault injection: ``FlakyTransport`` draws its faults from the plan's
own seed, so a chaos run replays exactly."""

from __future__ import annotations

from repro.errors import TransportError
from repro.net.address import Endpoint
from repro.net.faults import FaultPlan, FlakyTransport
from repro.net.transport import LoopbackTransport


class TestFaultPlanSeeding:
    def drop_pattern(self, seed):
        endpoint = Endpoint(host="h", service="echo")
        loopback = LoopbackTransport()
        loopback.register(endpoint, lambda frame: frame)
        flaky = FlakyTransport(loopback, FaultPlan(drop_probability=0.5, seed=seed))
        pattern = []
        for _ in range(64):
            try:
                flaky.request(endpoint, b"ping")
            except TransportError:
                pattern.append(True)
            else:
                pattern.append(False)
        return pattern

    def test_same_seed_same_drops(self):
        assert self.drop_pattern(seed=3) == self.drop_pattern(seed=3)

    def test_other_seed_other_drops(self):
        assert self.drop_pattern(seed=3) != self.drop_pattern(seed=4)
