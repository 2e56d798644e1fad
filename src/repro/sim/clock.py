"""Clock abstraction: real wall time or controllable simulated time.

Times are POSIX-style floats (seconds). ``SimClock`` only moves when the
simulation advances it, which is what makes freshness attacks testable:
a test can publish an element valid for 60 s, advance the clock 61 s,
and assert the proxy raises :class:`~repro.errors.FreshnessError`.

Every clock hands out ``compute()``, the region a component's crypto
runs in; only a :class:`~repro.net.simnet.SimHost` charges for it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import ContextManager, Iterator, Protocol, runtime_checkable

__all__ = ["Clock", "RealClock", "SimClock", "ParallelRegion"]

#: The compute region of a clock that charges nothing.
_FREE = nullcontext()


@runtime_checkable
class Clock(Protocol):
    """Minimal clock interface used throughout the library."""

    def now(self) -> float:
        """Current time in seconds since the epoch (simulated or real)."""
        ...

    def compute(self, native: bool = False) -> ContextManager[None]:
        """The region a component's crypto runs in (*native*: C code)."""
        ...


class RealClock:
    """Wall-clock time; used by the TCP integration path and examples."""

    def now(self) -> float:
        return time.time()

    def compute(self, native: bool = False) -> ContextManager[None]:
        return _FREE

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "RealClock()"


class SimClock:
    """A clock that advances only under explicit control: model code
    advances it to account for compute or transfer time."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def compute(self, native: bool = False) -> ContextManager[None]:
        return _FREE

    def advance(self, seconds: float) -> float:
        """Move time forward by *seconds* (must be non-negative)."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative time {seconds}")
        self._now += seconds
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move time forward to an absolute *timestamp* (never backwards)."""
        if timestamp < self._now:
            raise ValueError(
                f"cannot move clock backwards from {self._now} to {timestamp}"
            )
        self._now = float(timestamp)
        return self._now

    @contextmanager
    def parallel(self) -> Iterator["ParallelRegion"]:
        """A region whose branches are charged max-of-parallel.

        Simulated concurrency: each :meth:`ParallelRegion.branch` runs
        with the clock rewound to the fork time, and when the region
        closes the clock lands at the *latest* branch end — overlapped
        work costs the slowest branch, not the sum. Regions nest (a
        branch may open its own inner region).

        Usage::

            with clock.parallel() as region:
                for job in jobs:
                    with region.branch():
                        job()  # advances the clock branch-locally
        """
        region = ParallelRegion(self)
        try:
            yield region
        finally:
            region.close()


class ParallelRegion:
    """Bookkeeping for one :meth:`SimClock.parallel` region."""

    __slots__ = ("_clock", "_start", "_max_end", "_branch_open", "_closed")

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        self._start = clock.now()
        self._max_end = self._start
        self._branch_open = False
        self._closed = False

    @contextmanager
    def branch(self) -> Iterator[None]:
        """One concurrent strand: starts at the fork time, and its end
        time only moves the region's high-water mark. Branches of one
        region must not overlap each other (they model strands the
        single-threaded simulation executes one after another)."""
        if self._closed:
            raise ValueError("cannot open a branch on a closed parallel region")
        if self._branch_open:
            raise ValueError("parallel branches cannot be nested in each other")
        self._branch_open = True
        self._clock._now = self._start
        try:
            yield
        finally:
            self._branch_open = False
            if self._clock._now > self._max_end:
                self._max_end = self._clock._now
            self._clock._now = self._start

    def close(self) -> None:
        """Commit the region: the clock jumps to the latest branch end."""
        if self._closed:
            return
        self._closed = True
        if self._max_end > self._clock._now:
            self._clock._now = self._max_end

    @property
    def elapsed(self) -> float:
        """Longest branch duration seen so far (charged on close)."""
        return self._max_end - self._start

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParallelRegion(start={self._start}, max_end={self._max_end})"
