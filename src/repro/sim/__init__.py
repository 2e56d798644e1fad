"""Simulation kernel: injectable clocks and seeded RNG.

Everything in the library that needs "now" — freshness checks, transfer
timing, certificate validity — receives a :class:`~repro.sim.clock.Clock`
rather than calling ``time.time()``. This makes the security pipeline
deterministic under test and lets the experiment harness replay the
paper's WAN timings on a laptop.

The seeded NumPy streams of the workloads and the harness live in
:mod:`repro.sim.random`, which is imported by name and not re-exported
here: every client and server module imports :mod:`repro.sim.clock`,
and that must not load NumPy.
"""

from repro.sim.clock import Clock, RealClock, SimClock

__all__ = [
    "Clock",
    "RealClock",
    "SimClock",
]
