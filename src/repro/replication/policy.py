"""Replication policy interface and request accounting.

A policy observes the request stream for one document and emits
placement actions (create/destroy a replica at a site). Policies are
pure decision logic — the coordinator owns all side effects — so
strategies can be unit-tested on synthetic observation streams and run
unchanged in the crowd study (``harness/loadsim.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Deque, List, Protocol, Sequence

__all__ = [
    "ActionKind",
    "PlacementAction",
    "RequestObservation",
    "SiteStats",
    "ReplicationPolicy",
]


class ActionKind(str, Enum):
    """What the coordinator should do at a site."""

    CREATE = "create"
    DESTROY = "destroy"


@dataclass(frozen=True)
class PlacementAction:
    """One placement decision for one site."""

    kind: ActionKind
    site: str

    @classmethod
    def create(cls, site: str) -> "PlacementAction":
        return cls(kind=ActionKind.CREATE, site=site)

    @classmethod
    def destroy(cls, site: str) -> "PlacementAction":
        return cls(kind=ActionKind.DESTROY, site=site)


@dataclass(frozen=True)
class RequestObservation:
    """One client request as seen by the policy."""

    site: str
    time: float
    bytes_served: int = 0


@dataclass
class SiteStats:
    """Sliding-window request statistics for one site.

    The window is time-based; :meth:`rate` reports requests/second over
    the window, the quantity hotspot policies threshold on.
    """

    window: float = 60.0
    _times: Deque[float] = field(default_factory=deque)

    def observe(self, time: float) -> None:
        self._times.append(time)
        self._expire(time)

    def _expire(self, now: float) -> None:
        cutoff = now - self.window
        while self._times and self._times[0] < cutoff:
            self._times.popleft()

    def count(self, now: float) -> int:
        self._expire(now)
        return len(self._times)

    def rate(self, now: float) -> float:
        """Requests per second over the window ending at *now*."""
        return self.count(now) / self.window if self.window > 0 else 0.0


class ReplicationPolicy(Protocol):
    """Decision logic for one document's replica placement."""

    name: str

    def on_request(
        self,
        observation: RequestObservation,
        current_sites: Sequence[str],
    ) -> List[PlacementAction]:
        """React to one request. *current_sites* lists sites that already
        hold a replica (including the owner's home site, always first).
        Returned actions must be consistent (no CREATE at a current
        site, no DESTROY of the home site)."""
        ...
