"""Adversaries for the GlobeDoc threat model (§3).

The security architecture's claims are only meaningful against live
attacks, so this package implements them: replicas that tamper, replay
stale versions, or swap elements; a location service that lies; and a
man-in-the-middle on the wire. The attack tests assert that every one
of them is *detected* by the proxy's checks (or, for the lying location
service, degrades to denial of service only).
"""

from repro.attacks.adversary import AttackOutcome, run_attack_probe
from repro.attacks.malicious_server import (
    MaliciousReplica,
    TamperBehavior,
    StaleReplayBehavior,
    ElementSwapBehavior,
    ElementSwapRenamedBehavior,
    ImpostorBehavior,
    HonestBehavior,
)
from repro.attacks.malicious_location import LyingLocationService
from repro.attacks.mitm import MitmTransport
from repro.attacks.scenarios import (
    SCENARIOS,
    Scenario,
    World,
    build_world,
    run_scenario,
)

__all__ = [
    "AttackOutcome",
    "run_attack_probe",
    "SCENARIOS",
    "Scenario",
    "World",
    "build_world",
    "run_scenario",
    "MaliciousReplica",
    "TamperBehavior",
    "StaleReplayBehavior",
    "ElementSwapBehavior",
    "ElementSwapRenamedBehavior",
    "ImpostorBehavior",
    "HonestBehavior",
    "LyingLocationService",
    "MitmTransport",
]
