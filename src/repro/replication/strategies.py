"""The two replication strategies the crowd study compares.

Modelled on the families evaluated by Pierre et al. (ref [13], the
study the paper cites for per-document strategies beating global ones):

* ``NoReplication`` — serve everything from the owner's home site.
* ``HotspotReplication`` — dynamic: when a site's request rate crosses a
  threshold, push a replica there; tear it down when the site cools.
  This is the strategy that handles flash crowds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.errors import ReplicationError
from repro.replication.policy import (
    PlacementAction,
    RequestObservation,
    SiteStats,
)

__all__ = ["NoReplication", "HotspotReplication"]


class NoReplication:
    """Single copy at the home site; never replicates."""

    name = "no-replication"

    def on_request(self, observation, current_sites) -> List[PlacementAction]:
        return []


@dataclass
class HotspotReplication:
    """Dynamic replication toward request hotspots.

    Creates a replica at a site once its request rate exceeds
    ``create_rate`` (req/s over ``window`` s); destroys it when the rate
    falls below ``destroy_rate``. ``max_replicas`` bounds the footprint
    (home site included).
    """

    create_rate: float = 1.0
    destroy_rate: float = 0.1
    window: float = 60.0
    max_replicas: int = 8
    name: str = "hotspot"
    _stats: Dict[str, SiteStats] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.destroy_rate >= self.create_rate:
            raise ReplicationError(
                "destroy_rate must be below create_rate "
                f"({self.destroy_rate} >= {self.create_rate})"
            )
        if self.max_replicas < 1:
            raise ReplicationError("max_replicas must be at least 1")

    def _stats_for(self, site: str) -> SiteStats:
        stats = self._stats.get(site)
        if stats is None:
            stats = SiteStats(window=self.window)
            self._stats[site] = stats
        return stats

    def on_request(
        self, observation: RequestObservation, current_sites: Sequence[str]
    ) -> List[PlacementAction]:
        now = observation.time
        self._stats_for(observation.site).observe(now)
        actions: List[PlacementAction] = []
        current = list(current_sites)

        # Create at the requesting site if it is hot and capacity remains.
        if (
            observation.site not in current
            and len(current) < self.max_replicas
            and self._stats_for(observation.site).rate(now) >= self.create_rate
        ):
            actions.append(PlacementAction.create(observation.site))

        # Retire replicas at sites that have gone cold (never the home).
        for site in current[1:]:
            if self._stats_for(site).rate(now) <= self.destroy_rate:
                actions.append(PlacementAction.destroy(site))
        return actions
