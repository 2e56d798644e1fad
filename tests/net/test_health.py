"""Replica health tracking: failure counting and circuit breaking."""

from __future__ import annotations

import pytest

from repro.net.health import CircuitState, ReplicaHealthTracker
from repro.sim.clock import SimClock

ADDR = "globedoc/replica://replica.example/objectserver#r1"
OTHER = "globedoc/replica://other.example/objectserver#r2"


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def tracker(clock):
    return ReplicaHealthTracker(clock=clock, failure_threshold=3, quarantine_seconds=30.0)


class TestValidation:
    def test_bad_parameters_rejected(self, clock):
        with pytest.raises(ValueError):
            ReplicaHealthTracker(clock=clock, failure_threshold=0)
        with pytest.raises(ValueError):
            ReplicaHealthTracker(clock=clock, quarantine_seconds=0.0)


class TestCircuit:
    def test_unknown_address_is_closed(self, tracker):
        assert tracker.state_of(ADDR) is CircuitState.CLOSED
        assert not tracker.is_quarantined(ADDR)

    def test_threshold_opens_circuit(self, tracker):
        for _ in range(2):
            tracker.record_failure(ADDR)
        assert not tracker.is_quarantined(ADDR)
        tracker.record_failure(ADDR)
        assert tracker.is_quarantined(ADDR)
        assert tracker.quarantines == 1

    def test_success_resets_consecutive_count(self, tracker):
        tracker.record_failure(ADDR)
        tracker.record_failure(ADDR)
        tracker.record_success(ADDR)
        tracker.record_failure(ADDR)
        assert not tracker.is_quarantined(ADDR)
        assert tracker.record(ADDR).consecutive_failures == 1

    def test_quarantine_expires_to_half_open(self, tracker, clock):
        for _ in range(3):
            tracker.record_failure(ADDR)
        clock.advance(31.0)
        assert not tracker.is_quarantined(ADDR)  # probe allowed
        assert tracker.state_of(ADDR) is CircuitState.HALF_OPEN

    def test_half_open_success_closes(self, tracker, clock):
        for _ in range(3):
            tracker.record_failure(ADDR)
        clock.advance(31.0)
        tracker.state_of(ADDR)  # observe the expiry
        tracker.record_success(ADDR)
        assert tracker.state_of(ADDR) is CircuitState.CLOSED

    def test_half_open_failure_reopens_full_window(self, tracker, clock):
        for _ in range(3):
            tracker.record_failure(ADDR)
        clock.advance(31.0)
        tracker.state_of(ADDR)
        tracker.record_failure(ADDR)  # the probe failed
        assert tracker.is_quarantined(ADDR)
        assert tracker.quarantines == 2
        clock.advance(29.0)
        assert tracker.is_quarantined(ADDR)  # full fresh window

    def test_failure_while_open_slides_window_without_recount(self, tracker, clock):
        for _ in range(3):
            tracker.record_failure(ADDR)
        clock.advance(20.0)
        tracker.record_failure(ADDR)  # still failing inside quarantine
        assert tracker.quarantines == 1  # not double-counted
        clock.advance(20.0)  # 40 s after opening, 20 s after the slide
        assert tracker.is_quarantined(ADDR)


class TestFullLifecycle:
    """One breaker walked through every state, with the quarantine
    eviction listing and the monitor's ``states()`` read at each step."""

    def test_closed_open_half_open_closed(self, clock):
        tracker = ReplicaHealthTracker(
            clock=clock, failure_threshold=3, quarantine_seconds=30.0
        )

        # closed: below threshold, available to the binder, no eviction.
        tracker.record_failure(ADDR)
        tracker.record_failure(ADDR)
        assert tracker.state_of(ADDR) is CircuitState.CLOSED
        assert tracker.quarantined_addresses() == []
        assert tracker.states() == {ADDR: CircuitState.CLOSED}

        # closed -> open: the threshold failure trips the breaker; the
        # address lands in the eviction sweep and sinks in the ordering.
        tracker.record_failure(ADDR)
        assert tracker.state_of(ADDR) is CircuitState.OPEN
        assert tracker.quarantines == 1
        assert tracker.quarantined_addresses() == [ADDR]
        assert tracker.order([ADDR, OTHER]) == [OTHER, ADDR]
        assert tracker.states() == {ADDR: CircuitState.OPEN, OTHER: CircuitState.CLOSED}

        # open -> half-open: expiry is lazy (applied on read), so the
        # monitor's scrape-time read is what surfaces the transition; the
        # probe candidate leaves the eviction listing.
        clock.advance(31.0)
        assert tracker.states()[ADDR] is CircuitState.HALF_OPEN
        assert tracker.record(ADDR).state is CircuitState.HALF_OPEN
        assert tracker.quarantined_addresses() == []
        assert not tracker.is_quarantined(ADDR)

        # half-open -> closed: the probe succeeded.
        tracker.record_success(ADDR)
        assert tracker.states()[ADDR] is CircuitState.CLOSED
        assert tracker.record(ADDR).consecutive_failures == 0
        # Cumulative: closing does not undo the count; only reset() does.
        assert tracker.quarantines == 1
        tracker.reset()
        assert tracker.quarantines == 0

    def test_half_open_probe_failure_reenters_eviction_sweep(self, clock):
        tracker = ReplicaHealthTracker(
            clock=clock, failure_threshold=3, quarantine_seconds=30.0
        )
        for _ in range(3):
            tracker.record_failure(ADDR)
        clock.advance(31.0)
        assert tracker.state_of(ADDR) is CircuitState.HALF_OPEN
        tracker.record_failure(ADDR)  # one failed probe re-opens
        assert tracker.quarantined_addresses() == [ADDR]
        assert tracker.states() == {ADDR: CircuitState.OPEN}
        assert tracker.quarantines == 2

    def test_two_trackers_keep_separate_state(self, clock):
        one = ReplicaHealthTracker(clock=clock)
        two = ReplicaHealthTracker(clock=clock)
        for _ in range(3):
            one.record_failure(ADDR)
        two.record_success(ADDR)
        assert (one.states(), two.states()) == (
            {ADDR: CircuitState.OPEN}, {ADDR: CircuitState.CLOSED}
        )
        # Each tracker counts only its own quarantines.
        assert (one.quarantines, two.quarantines) == (1, 0)


class TestOrdering:
    def test_quarantined_addresses_sink(self, tracker):
        for _ in range(3):
            tracker.record_failure(ADDR)
        assert tracker.order([ADDR, OTHER]) == [OTHER, ADDR]

    def test_ordering_is_stable_for_healthy(self, tracker):
        assert tracker.order([ADDR, OTHER]) == [ADDR, OTHER]
        assert tracker.order([OTHER, ADDR]) == [OTHER, ADDR]

    def test_fewer_consecutive_failures_first(self, tracker):
        tracker.record_failure(ADDR)  # 1 failure, below threshold
        assert tracker.order([ADDR, OTHER]) == [OTHER, ADDR]

    def test_quarantined_addresses_listing(self, tracker):
        for _ in range(3):
            tracker.record_failure(ADDR)
        tracker.record_failure(OTHER)
        assert tracker.quarantined_addresses() == [ADDR]

    def test_reset(self, tracker):
        for _ in range(3):
            tracker.record_failure(ADDR)
        tracker.reset()
        assert len(tracker) == 0
        assert tracker.quarantines == 0
        assert not tracker.is_quarantined(ADDR)
