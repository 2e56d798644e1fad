"""The paper's experimental testbed (Table 1) as a simulated topology.

Four hosts:

========================  ==========================  ======  =========
Host                      Architecture                RAM     Role
========================  ==========================  ======  =========
ginger.cs.vu.nl           Dual Pentium III 2×1 GHz    2 GB    Amsterdam primary (replica + services)
sporty.cs.vu.nl           Dual Pentium III 2×1 GHz    2 GB    Amsterdam secondary (LAN client)
canardo.inria.fr          Pentium III 1 GHz           256 MB  Paris client
ensamble02.cornell.edu    UltraSPARC-IIi 450 MHz      256 MB  Ithaca, NY client
========================  ==========================  ======  =========

Calibration (documented substitutions, see DESIGN.md §2):

* ``cpu_factor`` scales the modelled modern crypto cost (the per-operation
  table :data:`~repro.net.simnet.COST_US`, measured once) up to the 2004
  host: ~20× for a 1 GHz Pentium III, ~45× for the 450 MHz UltraSPARC
  (which additionally ran crypto in interpreted Java without
  x86-optimised primitives).
* ``memory_pressure`` models the swapping the paper blames for the
  256 MB hosts' degraded JVM performance (×2.5).
* Link parameters are era-plausible WAN values: 100 Mbit/s switched LAN
  at the VU; ~8 Mbit/s with 10 ms one-way delay Amsterdam↔Paris;
  ~4 Mbit/s with 45 ms one-way delay Amsterdam↔Ithaca.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.net.simnet import HostProfile, LinkSpec, SimNetwork
from repro.sim.clock import SimClock

__all__ = [
    "AMSTERDAM_PRIMARY",
    "AMSTERDAM_SECONDARY",
    "PARIS",
    "ITHACA",
    "TABLE1_HOSTS",
    "WanTopology",
    "paper_testbed",
]

#: Era scaling: one modern core ≈ 20× a 1 GHz Pentium III on OpenSSL-style
#: crypto workloads (single-threaded integer/vector throughput).
ERA_SCALE_P3_1GHZ = 20.0

AMSTERDAM_PRIMARY = HostProfile(
    name="ginger.cs.vu.nl",
    site="VU",
    arch="Dual Pentium III 2x1GHz",
    ram_mb=2048,
    os="Linux 2.4.19",
    cpu_factor=ERA_SCALE_P3_1GHZ,
    memory_pressure=1.0,
    service_time=0.0015,
)

AMSTERDAM_SECONDARY = HostProfile(
    name="sporty.cs.vu.nl",
    site="VU",
    arch="Dual Pentium III 2x1GHz",
    ram_mb=2048,
    os="Linux 2.4.19",
    cpu_factor=ERA_SCALE_P3_1GHZ,
    memory_pressure=1.0,
    service_time=0.0015,
)

PARIS = HostProfile(
    name="canardo.inria.fr",
    site="INRIA",
    arch="Pentium III 1GHz",
    ram_mb=256,
    os="Linux 2.4.18",
    cpu_factor=ERA_SCALE_P3_1GHZ,
    memory_pressure=2.5,
    service_time=0.002,
)

ITHACA = HostProfile(
    name="ensamble02.cornell.edu",
    site="Cornell",
    arch="UltraSPARC-IIi 450MHz",
    ram_mb=256,
    os="SunOS 5.8",
    cpu_factor=45.0,
    memory_pressure=2.5,
    service_time=0.003,
)

TABLE1_HOSTS = (AMSTERDAM_PRIMARY, AMSTERDAM_SECONDARY, PARIS, ITHACA)

#: Link parameters between the three sites (one-way latency s, bytes/s).
_SITE_LINKS = {
    ("VU", "VU"): LinkSpec(latency=0.00015, bandwidth=12_500_000),
    ("VU", "INRIA"): LinkSpec(latency=0.010, bandwidth=1_000_000),
    ("VU", "Cornell"): LinkSpec(latency=0.045, bandwidth=500_000),
    ("INRIA", "Cornell"): LinkSpec(latency=0.050, bandwidth=500_000),
}


@dataclass
class WanTopology:
    """A constructed testbed: network plus the canonical host roles."""

    network: SimNetwork
    primary: HostProfile = AMSTERDAM_PRIMARY
    secondary: HostProfile = AMSTERDAM_SECONDARY
    paris: HostProfile = PARIS
    ithaca: HostProfile = ITHACA
    #: Fixed per-access client-side cost outside the security path: the
    #: browser/wget → proxy local HTTP hop and proxy bookkeeping.
    client_overhead: float = 0.005

    @property
    def clock(self) -> SimClock:
        return self.network.clock  # type: ignore[return-value]

    @property
    def clients(self) -> Dict[str, HostProfile]:
        """The paper's three client vantage points keyed by figure label."""
        return {
            "Amsterdam": self.secondary,
            "Paris": self.paris,
            "Ithaca": self.ithaca,
        }


def paper_testbed(clock: Optional[SimClock] = None) -> WanTopology:
    """Build the Table 1 testbed on a fresh simulated network."""
    network = SimNetwork(clock=clock)
    for profile in TABLE1_HOSTS:
        network.add_host(profile)
    for (a, b), spec in _SITE_LINKS.items():
        network.add_link(a, b, spec)
    return WanTopology(network=network)
