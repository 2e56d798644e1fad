"""Per-replica health tracking: failure counts and circuit breaking.

One :class:`ReplicaHealthTracker` is shared by every component that
talks to replicas on behalf of one client (retrying RPC client,
binder). It keeps, per contact-address string, the consecutive-failure
count and a quarantine window implementing the classic circuit-breaker
states:

* **closed** — the replica looks fine; use it normally.
* **open** — ``failure_threshold`` consecutive failures tripped the
  breaker; the address is *quarantined* until a timestamp and the
  binder orders it after every healthy alternative.
* **half-open** — the quarantine expired; the next call is a probe.
  Success closes the breaker, failure re-opens it for a full window.

The tracker never *blocks* a call: when the quarantined address is the
only replica left, using it beats failing — the paper's bound is
"at most denial of service", not "guaranteed denial". Quarantine only
demotes the address in the binder's ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence

from repro.sim.clock import Clock, RealClock

__all__ = [
    "CircuitState",
    "HealthRecord",
    "ReplicaHealthTracker",
]


class CircuitState(str, Enum):
    """Circuit-breaker state of one contact address."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass
class HealthRecord:
    """Observed health of one contact address."""

    consecutive_failures: int = 0
    total_failures: int = 0
    total_successes: int = 0
    quarantined_until: float = 0.0
    state: CircuitState = CircuitState.CLOSED


class ReplicaHealthTracker:
    """Shared failure accounting + circuit breaker, keyed by address."""

    def __init__(
        self,
        clock: Optional[Clock] = None,
        failure_threshold: int = 3,
        quarantine_seconds: float = 30.0,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if quarantine_seconds <= 0:
            raise ValueError(
                f"quarantine_seconds must be positive, got {quarantine_seconds}"
            )
        self.clock = clock if clock is not None else RealClock()
        self.failure_threshold = failure_threshold
        self.quarantine_seconds = quarantine_seconds
        self._records: Dict[str, HealthRecord] = {}
        #: Total number of transitions into the OPEN state.
        self.quarantines = 0

    # ------------------------------------------------------------------
    # Observations
    # ------------------------------------------------------------------

    def record_failure(self, address: str) -> None:
        record = self._records.setdefault(str(address), HealthRecord())
        record.consecutive_failures += 1
        record.total_failures += 1
        now = self.clock.now()
        if record.state is CircuitState.OPEN:
            # Still failing while quarantined: keep the window sliding,
            # but do not double-count the quarantine.
            record.quarantined_until = now + self.quarantine_seconds
        elif (
            record.state is CircuitState.HALF_OPEN
            or record.consecutive_failures >= self.failure_threshold
        ):
            record.state = CircuitState.OPEN
            record.quarantined_until = now + self.quarantine_seconds
            self.quarantines += 1

    def record_success(self, address: str) -> None:
        record = self._records.setdefault(str(address), HealthRecord())
        record.consecutive_failures = 0
        record.total_successes += 1
        record.state = CircuitState.CLOSED
        record.quarantined_until = 0.0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def record(self, address: str) -> HealthRecord:
        """The (possibly fresh) record for *address*."""
        return self._records.setdefault(str(address), HealthRecord())

    def state_of(self, address: str) -> CircuitState:
        """Current breaker state, applying quarantine expiry."""
        record = self._records.get(str(address))
        if record is None:
            return CircuitState.CLOSED
        if (
            record.state is CircuitState.OPEN
            and self.clock.now() >= record.quarantined_until
        ):
            record.state = CircuitState.HALF_OPEN  # next call is a probe
        return record.state

    def is_quarantined(self, address: str) -> bool:
        """True while the breaker is open and the window has not expired."""
        return self.state_of(address) is CircuitState.OPEN

    def order(self, addresses: Sequence) -> List:
        """Stable re-ordering of contact addresses, healthiest first.

        Non-quarantined addresses keep their (proximity-sorted) order and
        come first, sorted by consecutive failures; quarantined ones sink
        to the back. Half-open addresses count as available — they must
        receive probe traffic to ever close again.
        """
        return sorted(
            addresses,
            key=lambda a: (
                self.is_quarantined(str(a)),
                self.record(str(a)).consecutive_failures,
            ),
        )

    def reset(self) -> None:
        self._records.clear()
        self.quarantines = 0

    def __len__(self) -> int:
        return len(self._records)
