"""The simulated WAN.

This module stands in for the paper's four-host Internet testbed
(Table 1). The model has exactly the two ingredients the paper's
measurements decompose into:

* **transfer time** — per-link propagation latency plus serialisation of
  the *actual encoded bytes* at the link bandwidth, plus a per-request
  service time at the destination host (connection handling, the
  Java-server cost the paper discusses);
* **compute time** — *modelled*, not measured: the crypto and codec
  operations counted inside a :meth:`SimHost.compute` region, priced by
  :data:`COST_US` (measured once on a modern core) and scaled by the
  host's CPU factor (era scaling: a 2026 core is ~20× a 1 GHz Pentium
  III at crypto) and memory-pressure factor (the 256 MB hosts swapped).

Both advance the shared :class:`~repro.sim.clock.SimClock`, so a clock
delta around any operation sequence is directly comparable to the
paper's timer placements; nothing here reads wall time, so a fixed seed
gives the same simulated times on any machine.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import TransportError
from repro.net.address import Endpoint
from repro.net.transport import TransferStats
from repro.sim.clock import SimClock
from repro.util.tally import TALLY

__all__ = ["COST_US", "HostProfile", "LinkSpec", "SimHost", "SimNetwork", "SimTransport"]

FrameHandler = Callable[[bytes], bytes]

#: Modern µs per counted unit — an RSA operation by key size, a byte of
#: the byte kinds — measured once (DESIGN §2: how, when, on what); a
#: host's factors scale them to its era. ``"region"`` is what every
#: compute region costs on top: a check's bookkeeping.
COST_US: Dict[object, float] = {
    "region": 1.79,
    ("rsa.verify", 1024): 15.05,
    ("rsa.sign", 1024): 111.71,
    ("rsa.encrypt", 1024): 8.57,
    ("rsa.decrypt", 1024): 109.85,
    ("rsa.verify", 2048): 29.24,
    ("rsa.sign", 2048): 353.49,
    ("rsa.encrypt", 2048): 22.78,
    ("rsa.decrypt", 2048): 355.46,
    "hashed": 0.662 / 1024,
    "encoded": 36.74 / 1024,
    "record": 1.30 / 1024,
}


@dataclass(frozen=True)
class HostProfile:
    """Static description of a simulated host (one row of Table 1).

    ``cpu_factor`` multiplies the modelled modern compute cost
    (:data:`COST_US`) to model the host's era/architecture;
    ``memory_pressure`` multiplies it again to model swapping on
    RAM-starved hosts (the paper's explanation for GlobeDoc losing to
    Apache/SSL on the 256 MB machines).
    ``service_time`` is the fixed per-request cost of the server software
    stack at this host, in simulated seconds.
    """

    name: str
    site: str
    arch: str = ""
    ram_mb: int = 2048
    os: str = ""
    cpu_factor: float = 1.0
    memory_pressure: float = 1.0
    service_time: float = 0.002

    @property
    def compute_scale(self) -> float:
        return self.cpu_factor * self.memory_pressure


@dataclass(frozen=True)
class LinkSpec:
    """One-way link characteristics between two sites."""

    latency: float  # seconds, one way
    bandwidth: float  # bytes per second

    def transfer_time(self, nbytes: int) -> float:
        """One-way delivery time for *nbytes*."""
        if nbytes < 0:
            raise ValueError("cannot transfer a negative byte count")
        return self.latency + nbytes / self.bandwidth


class SimHost:
    """A host attached to a :class:`SimNetwork`, and the clock of the
    components it runs: time is the network's shared clock, and
    :meth:`compute` charges work to this host."""

    def __init__(self, profile: HostProfile, network: "SimNetwork") -> None:
        self.profile = profile
        self.network = network

    @property
    def name(self) -> str:
        return self.profile.name

    def now(self) -> float:
        return self.network.clock.now()

    def advance(self, seconds: float) -> float:
        return self.network.clock.advance(seconds)

    @contextmanager
    def compute(self, native: bool = False) -> Iterator[None]:
        """Charge this host ``COST_US["region"]`` plus what the region
        tallied at the table's prices, × CPU factor × memory pressure
        (the JVM's swapping, for the GlobeDoc proxy and server) — or ×
        CPU factor alone if *native* (wget/OpenSSL, Apache). Work of a
        nested region is charged once, to its own host; work outside
        every region is free."""
        open_regions = self.network._open_regions
        start = dict(TALLY)
        open_regions.append(start)
        try:
            yield
        finally:
            open_regions.pop()
            done = {op: count - start.get(op, 0) for op, count in TALLY.items()}
            if open_regions:  # the enclosing region's host does not pay again
                outer = open_regions[-1]
                for op, count in done.items():
                    outer[op] = outer.get(op, 0) + count
            # An operation without a price is a KeyError, never free.
            us = COST_US["region"] + sum(n * COST_US[op] for op, n in done.items() if n)
            scale = self.profile.cpu_factor if native else self.profile.compute_scale
            self.network.clock.advance(us * 1e-6 * scale)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimHost({self.profile.name!r} @ {self.profile.site!r})"


class SimNetwork:
    """Hosts + links + endpoint registry + the shared simulated clock."""

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self._hosts: Dict[str, SimHost] = {}
        self._links: Dict[Tuple[str, str], LinkSpec] = {}
        self._handlers: Dict[Endpoint, FrameHandler] = {}
        self._default_link: Optional[LinkSpec] = None
        #: The tally at the start of each compute region open now,
        #: innermost last; a closing region adds its work to the
        #: enclosing one's start, so that host is not charged again.
        self._open_regions: List[Dict[object, int]] = []

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------

    def add_host(self, profile: HostProfile) -> SimHost:
        if profile.name in self._hosts:
            raise TransportError(f"host {profile.name!r} already exists")
        host = SimHost(profile, self)
        self._hosts[profile.name] = host
        return host

    def host(self, name: str) -> SimHost:
        try:
            return self._hosts[name]
        except KeyError:
            raise TransportError(f"unknown host {name!r}") from None

    @property
    def host_names(self) -> list:
        return sorted(self._hosts)

    def add_link(self, a: str, b: str, spec: LinkSpec, symmetric: bool = True) -> None:
        """Connect hosts (or sites) *a* and *b*."""
        self._links[(a, b)] = spec
        if symmetric:
            self._links[(b, a)] = spec

    def set_default_link(self, spec: LinkSpec) -> None:
        """Fallback link used for host pairs without an explicit entry."""
        self._default_link = spec

    def link_between(self, src: str, dst: str) -> LinkSpec:
        """Resolve the link between two *hosts* (host pair, then site
        pair, then default). Same-host traffic is free of propagation."""
        if src == dst:
            return LinkSpec(latency=0.0, bandwidth=float("inf"))
        direct = self._links.get((src, dst))
        if direct is not None:
            return direct
        src_site = self._hosts[src].profile.site if src in self._hosts else src
        dst_site = self._hosts[dst].profile.site if dst in self._hosts else dst
        by_site = self._links.get((src_site, dst_site))
        if by_site is not None:
            return by_site
        if src_site == dst_site:
            # Same site without an explicit LAN entry: fast local link.
            return LinkSpec(latency=0.0002, bandwidth=12_500_000)
        if self._default_link is not None:
            return self._default_link
        raise TransportError(f"no link between {src!r} and {dst!r}")

    # ------------------------------------------------------------------
    # Endpoints and transports
    # ------------------------------------------------------------------

    def register(self, endpoint: Endpoint, handler: FrameHandler) -> None:
        """Expose a frame handler at *endpoint* (host must exist)."""
        self.host(endpoint.host)  # validates
        self._handlers[endpoint] = handler

    def unregister(self, endpoint: Endpoint) -> None:
        self._handlers.pop(endpoint, None)

    def handler_at(self, endpoint: Endpoint) -> FrameHandler:
        handler = self._handlers.get(endpoint)
        if handler is None:
            raise TransportError(f"no handler registered at {endpoint}")
        return handler

    def transport_for(self, host_name: str) -> "SimTransport":
        """A client-side transport originating at *host_name*."""
        return SimTransport(self, self.host(host_name))


@dataclass
class SimTransport:
    """Client transport bound to a source host on a :class:`SimNetwork`.

    A request charges: request serialisation + propagation to the server,
    the destination's per-request service time, the handler's own compute
    charges (crypto on the server side), and the response trip back.
    """

    network: SimNetwork
    src: SimHost
    stats: TransferStats = field(default_factory=TransferStats)

    def request(self, endpoint: Endpoint, frame: bytes) -> bytes:
        handler = self.network.handler_at(endpoint)
        dst = self.network.host(endpoint.host)
        link = self.network.link_between(self.src.name, dst.name)
        clock = self.network.clock

        clock.advance(link.transfer_time(len(frame)))
        clock.advance(dst.profile.service_time)
        response = handler(frame)
        clock.advance(link.transfer_time(len(response)))

        self.stats.record(sent=len(frame), received=len(response))
        return response

    def request_many(
        self, batch: Sequence[Tuple[Endpoint, bytes]]
    ) -> List[Union[bytes, Exception]]:
        """Issue a batch of requests concurrently (simulated).

        Each request runs in its own branch of a
        :meth:`~repro.sim.clock.SimClock.parallel` region, so the batch
        charges the *slowest* request's time instead of the sum — the
        cost model of a client keeping several RPCs in flight. Slots in
        the returned list align with *batch*; a failed request's slot
        holds the exception instead of raising, so one dead endpoint
        cannot sink its wave-mates.
        """
        results: List[Union[bytes, Exception]] = []
        with self.network.clock.parallel() as region:
            for endpoint, frame in batch:
                with region.branch():
                    try:
                        results.append(self.request(endpoint, frame))
                    except Exception as exc:
                        results.append(exc)
        return results
