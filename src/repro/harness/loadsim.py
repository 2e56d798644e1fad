"""Load simulation: request traces driven through the full stack.

The paper's motivation (§1) is quantitative — "the single hosting
server simply cannot cope (CPU-wise or bandwidth-wise) with the sudden
high demands" — so the harness includes a load simulator: a time-
ordered trace of client requests executed against the testbed on the
shared simulated clock.

Model: the simulated clock is a serialised resource (one request at a
time network-wide), i.e. a single-queue approximation of the congested
path. A request arriving while earlier work is still in flight *waits*;
its client-perceived latency is queue wait + service time. Under a
flash crowd served transatlantically, waits explode; after a replica is
placed near the crowd, per-request service time collapses and the queue
drains — the relief the paper's architecture exists to provide. The
approximation overstates cross-site contention (all links share the
queue), so reported waits are an upper bound; the before/after contrast
is the meaningful output.

One proxy is shared per site, mirroring the paper's deployment of a
GlobeDoc proxy per client site (binding/cert work is thus amortised the
way it would be in practice).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.globedoc.element import PageElement
from repro.globedoc.owner import DocumentOwner
from repro.harness.experiment import Testbed
from repro.harness.report import render_table
from repro.naming.records import OidRecord
from repro.replication.policy import ReplicationPolicy, RequestObservation
from repro.replication.strategies import HotspotReplication, NoReplication
from repro.util.stats import Summary, summarize
from repro.workloads.trace import RequestEvent, TraceConfig, generate_trace, inject_flash_crowd

__all__ = [
    "LoadSimulator", "LoadedRequest", "LoadReport", "SITE_HOSTS",
    "CROWD_SITE", "run_crowd", "run_crowd_study", "render_crowd_study",
]

#: Default mapping from location-tree sites to client hosts.
SITE_HOSTS = {
    "root/europe/vu": "sporty.cs.vu.nl",
    "root/europe/inria": "canardo.inria.fr",
    "root/us/cornell": "ensamble02.cornell.edu",
}

#: Where the §1 flash crowd arrives — an ocean away from the home replica.
CROWD_SITE = "root/us/cornell"


@dataclass(frozen=True)
class LoadedRequest:
    """One executed request with its timing breakdown."""

    event: RequestEvent
    arrival: float
    started: float
    completed: float
    ok: bool

    @property
    def wait(self) -> float:
        """Queueing delay before service began."""
        return self.started - self.arrival

    @property
    def service(self) -> float:
        return self.completed - self.started

    @property
    def latency(self) -> float:
        """Client-perceived: wait + service."""
        return self.completed - self.arrival


@dataclass
class LoadReport:
    """Aggregate outcome of one load run."""

    requests: List[LoadedRequest] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.requests)

    @property
    def failures(self) -> int:
        return sum(1 for r in self.requests if not r.ok)

    def latency_summary(
        self,
        site: Optional[str] = None,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> Summary:
        """Latency stats, optionally filtered by site and arrival window
        (window bounds are trace-relative seconds)."""
        selected = [
            r.latency
            for r in self.requests
            if (site is None or r.event.site == site)
            and (start is None or r.event.time >= start)
            and (end is None or r.event.time < end)
        ]
        if not selected:
            raise ReproError("no requests match the latency filter")
        return summarize(selected)

    @property
    def max_wait(self) -> float:
        return max((r.wait for r in self.requests), default=0.0)


class LoadSimulator:
    """Executes request traces against a testbed, one site-proxy each."""

    def __init__(
        self,
        testbed: Testbed,
        url_of: Callable[[RequestEvent], str],
        site_hosts: Optional[Mapping[str, str]] = None,
        location_ttl: float = 5.0,
    ) -> None:
        self.testbed = testbed
        self.url_of = url_of
        self.site_hosts = dict(site_hosts or SITE_HOSTS)
        self.location_ttl = location_ttl
        self._proxies: Dict[str, object] = {}

    def _proxy_for(self, site: str):
        proxy = self._proxies.get(site)
        if proxy is None:
            host = self.site_hosts.get(site)
            if host is None:
                raise ReproError(f"no client host configured for site {site!r}")
            stack = self.testbed.client_stack(host, location_ttl=self.location_ttl)
            proxy = stack.proxy
            # Bindings follow replica placement at the location-cache
            # cadence — without this a site proxy would keep using the
            # first replica it ever bound to.
            proxy.session_ttl = self.location_ttl
            self._proxies[site] = proxy
        return proxy

    def run(
        self,
        trace: Sequence[RequestEvent],
        on_request: Optional[Callable[[RequestEvent], None]] = None,
    ) -> LoadReport:
        """Execute *trace* in arrival order; returns the report.

        *on_request* fires after each request — the hook where a
        replication coordinator observes demand and reacts (its own
        placement work also consumes simulated time, as it should).
        """
        clock = self.testbed.clock
        base = clock.now()
        report = LoadReport()
        for event in sorted(trace, key=lambda e: e.time):
            arrival = base + event.time
            if clock.now() < arrival:
                clock.advance_to(arrival)
            started = clock.now()
            proxy = self._proxy_for(event.site)
            response = proxy.handle(self.url_of(event))
            completed = clock.now()
            report.requests.append(
                LoadedRequest(
                    event=event,
                    arrival=arrival,
                    started=started,
                    completed=completed,
                    ok=response.ok,
                )
            )
            if on_request is not None:
                on_request(event)
        return report


def run_crowd(
    policy_factory: Callable[[], ReplicationPolicy],
) -> Tuple[LoadReport, int]:
    """One flash crowd at :data:`CROWD_SITE` against a document homed at
    the VU, with *policy_factory*'s policy deciding replica placement:
    the report, and how many replicas the coordinator placed (the home
    one included).

    The Cornell object server starts empty: whether the document ever
    gets a replica there is the policy's call, which is the comparison.
    """
    testbed = Testbed()
    owner = DocumentOwner("vu.nl/hot", clock=testbed.clock)
    owner.put_element(PageElement("index.html", b"<html>hot</html>" * 64))
    document = owner.publish(validity=7200)
    testbed.object_server.keystore.authorize("owner", owner.public_key)
    testbed.naming.register(OidRecord(name=owner.name, oid=owner.oid))

    cornell = testbed.start_server(SITE_HOSTS[CROWD_SITE])
    cornell.keystore.authorize("owner", owner.public_key)
    coordinator = testbed.coordinator(owner)
    coordinator.manage(owner, document, policy_factory(), home_site=testbed.site)

    trace = inject_flash_crowd(
        generate_trace(
            TraceConfig(
                documents=(owner.name,), sites=(testbed.site, CROWD_SITE),
                duration=120.0, rate=0.2, seed=5,
            )
        ),
        document=owner.name, site=CROWD_SITE, start=30.0, duration=30.0,
        rate=20.0, seed=6,
    )
    simulator = LoadSimulator(testbed, url_of=lambda e: f"globe://{e.document}!/index.html")
    report = simulator.run(
        trace,
        on_request=lambda e: coordinator.observe_request(
            owner.oid, RequestObservation(site=e.site, time=testbed.clock.now())
        ),
    )
    return report, coordinator.document(owner.oid).placements


def run_crowd_study() -> Tuple[Tuple[LoadReport, int], Tuple[LoadReport, int]]:
    """The same crowd served by (a single server, hotspot replication)."""
    return (
        run_crowd(NoReplication),
        run_crowd(
            lambda: HotspotReplication(create_rate=1.0, destroy_rate=0.01, window=15.0)
        ),
    )


def render_crowd_study(static: LoadReport, dynamic: LoadReport) -> str:
    """Mean client latency at the crowd site, before and at the peak."""
    rows = []
    for label, start, end in (
        ("pre-crowd (0-30 s)", 0.0, 30.0),
        ("crowd peak (45-60 s)", 45.0, 60.0),
    ):
        s = static.latency_summary(site=CROWD_SITE, start=start, end=end)
        d = dynamic.latency_summary(site=CROWD_SITE, start=start, end=end)
        rows.append([label, f"{s.mean*1e3:.1f} ms", f"{d.mean*1e3:.1f} ms"])
    return "Load study — flash crowd at Cornell (mean client latency)\n" + render_table(
        ["Phase", "single server", "hotspot replication"], rows
    )
