"""Server-side resource limits and accounting (§6 future work).

"Server administrators will be able to specify resource limitations (in
terms of disk space, memory, network bandwidth among other things) for
the replicas they are willing to host, with the object server being
responsible with enforcing these limitations."

:class:`ResourceLimits` is the administrator's declaration;
:class:`ResourceAccountant` meters actual usage (disk per replica,
replica count, bandwidth over a sliding window) and raises
:class:`~repro.errors.ResourceExceeded` when a limit would be crossed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Tuple

from repro.errors import ResourceExceeded
from repro.sim.clock import Clock

__all__ = ["ResourceLimits", "ResourceAccountant", "ResourceExceeded", "UNLIMITED"]

#: Sentinel for "no limit" on a dimension.
UNLIMITED = float("inf")


@dataclass(frozen=True)
class ResourceLimits:
    """Administrator-declared hosting capacity."""

    disk_bytes: float = UNLIMITED
    max_replicas: float = UNLIMITED
    bandwidth_bytes_per_sec: float = UNLIMITED
    bandwidth_window: float = 60.0

    def to_dict(self) -> dict:
        def enc(value: float):
            return None if value == UNLIMITED else value

        return {
            "disk_bytes": enc(self.disk_bytes),
            "max_replicas": enc(self.max_replicas),
            "bandwidth_bytes_per_sec": enc(self.bandwidth_bytes_per_sec),
            "bandwidth_window": self.bandwidth_window,
        }

    @classmethod
    def from_dict(cls, data) -> "ResourceLimits":
        def dec(value):
            return UNLIMITED if value is None else float(value)

        return cls(
            disk_bytes=dec(data.get("disk_bytes")),
            max_replicas=dec(data.get("max_replicas")),
            bandwidth_bytes_per_sec=dec(data.get("bandwidth_bytes_per_sec")),
            bandwidth_window=float(data.get("bandwidth_window", 60.0)),
        )


class ResourceAccountant:
    """Meters replica resource usage against :class:`ResourceLimits`."""

    def __init__(self, limits: ResourceLimits, clock: Clock) -> None:
        self.limits = limits
        self.clock = clock
        self._disk_by_replica: Dict[str, int] = {}
        self._served: Deque[Tuple[float, int]] = deque()
        #: Running sum of the sizes in ``_served``: the window total is
        #: read on every serve, so it must not cost a pass over the deque.
        self._served_bytes = 0
        self.bytes_served_total = 0
        self.rejections = 0

    # ------------------------------------------------------------------
    # Disk / replica-count admission
    # ------------------------------------------------------------------

    @property
    def disk_used(self) -> int:
        return sum(self._disk_by_replica.values())

    @property
    def replica_count(self) -> int:
        return len(self._disk_by_replica)

    def admit_replica(self, replica_id: str, size_bytes: int) -> None:
        """Charge a new replica; raises :class:`ResourceExceeded` first."""
        if self.replica_count + 1 > self.limits.max_replicas:
            self.rejections += 1
            raise ResourceExceeded(
                f"replica cap reached ({int(self.limits.max_replicas)})"
            )
        if self.disk_used + size_bytes > self.limits.disk_bytes:
            self.rejections += 1
            raise ResourceExceeded(
                f"disk limit exceeded: {self.disk_used + size_bytes} > "
                f"{self.limits.disk_bytes:.0f} bytes"
            )
        self._disk_by_replica[replica_id] = size_bytes

    def resize_replica(self, replica_id: str, new_size: int) -> None:
        """Re-charge an updated replica (new document version)."""
        current = self._disk_by_replica.get(replica_id, 0)
        if self.disk_used - current + new_size > self.limits.disk_bytes:
            self.rejections += 1
            raise ResourceExceeded(
                f"disk limit exceeded by update to {replica_id!r}"
            )
        self._disk_by_replica[replica_id] = new_size

    def release_replica(self, replica_id: str) -> None:
        self._disk_by_replica.pop(replica_id, None)

    # ------------------------------------------------------------------
    # Bandwidth metering (sliding window)
    # ------------------------------------------------------------------

    def _window_bytes(self, now: float) -> int:
        cutoff = now - self.limits.bandwidth_window
        while self._served and self._served[0][0] < cutoff:
            self._served_bytes -= self._served.popleft()[1]
        return self._served_bytes

    def bandwidth_in_use(self) -> float:
        """Current mean bytes/second over the window."""
        now = self.clock.now()
        return self._window_bytes(now) / self.limits.bandwidth_window

    def charge_serve(self, nbytes: int) -> None:
        """Account *nbytes* about to be served; raises if over budget."""
        now = self.clock.now()
        budget = self.limits.bandwidth_bytes_per_sec * self.limits.bandwidth_window
        if self._window_bytes(now) + nbytes > budget:
            self.rejections += 1
            raise ResourceExceeded(
                f"bandwidth limit exceeded "
                f"({self.limits.bandwidth_bytes_per_sec:.0f} B/s over "
                f"{self.limits.bandwidth_window:.0f} s window)"
            )
        self._served.append((now, nbytes))
        self._served_bytes += nbytes
        self.bytes_served_total += nbytes

    # ------------------------------------------------------------------
    # Quoting (for hosting negotiation)
    # ------------------------------------------------------------------

    def quote(self) -> dict:
        """A snapshot of capacity and headroom, for negotiation."""
        limits = self.limits

        def headroom(limit: float, used: float):
            return None if limit == UNLIMITED else max(0.0, limit - used)

        return {
            "limits": limits.to_dict(),
            "disk_used": self.disk_used,
            "disk_free": headroom(limits.disk_bytes, self.disk_used),
            "replicas_hosted": self.replica_count,
            "replica_slots_free": headroom(limits.max_replicas, self.replica_count),
            "bandwidth_in_use": self.bandwidth_in_use()
            if limits.bandwidth_bytes_per_sec != UNLIMITED
            else 0.0,
        }
