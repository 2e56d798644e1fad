"""Per-document replication (§2).

Globe lets every object carry its own distribution strategy; the paper
leans on ref [13] (Pierre et al.) showing per-document strategies beat
any one-size-fits-all choice. This package provides the two strategies
the crowd study runs and the coordinator that turns strategy decisions
into replica placements (via the object-server admin interface and the
location service) and pushes updates to every replica.
"""

from repro.replication.policy import (
    PlacementAction,
    ReplicationPolicy,
    RequestObservation,
    SiteStats,
)
from repro.replication.strategies import NoReplication, HotspotReplication
from repro.replication.coordinator import ReplicationCoordinator, ManagedDocument

__all__ = [
    "PlacementAction",
    "ReplicationPolicy",
    "RequestObservation",
    "SiteStats",
    "NoReplication",
    "HotspotReplication",
    "ReplicationCoordinator",
    "ManagedDocument",
]
