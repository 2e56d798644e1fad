"""Simulation kernel: injectable clocks and seeded RNG.

Everything in the library that needs "now" — freshness checks, transfer
timing, certificate validity — receives a :class:`~repro.sim.clock.Clock`
rather than calling ``time.time()``. This makes the security pipeline
deterministic under test and lets the experiment harness replay the
paper's WAN timings on a laptop.
"""

from repro.sim.clock import Clock, RealClock, SimClock
from repro.sim.random import make_rng

__all__ = [
    "Clock",
    "RealClock",
    "SimClock",
    "make_rng",
]
