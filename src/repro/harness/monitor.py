"""Monitor-plane bench: the metrics registry and alert engine, end to end.

Runs a mixed workload over the testbed with the whole stack wired into
one shared :class:`~repro.obs.metrics.MetricsRegistry`, scrapes it on a
fixed sim-clock cadence, and injects three sequential faults:

1. **Replica kill** — the inria object server vanishes mid-workload.
   The client bound there retries, opens the circuit breaker, and fails
   over; the ``replica_circuit_open`` alert must fire, then resolve
   after the server returns and the quarantine window expires.
2. **Feed outage** — the revocation feed becomes unreachable long
   enough for every client's view staleness to cross the warning bound
   (but not the fail-closed ``max_staleness``); the
   ``revocation_staleness_high`` alert must fire, then resolve on the
   first successful re-sync.
3. **Key revocation** — one document's key is revoked and published to
   the feed. Clients must start rejecting it (``RevokedKeyError``),
   driving the ``revocation_rejections`` rate alert; once the workload
   abandons the revoked document the trailing window drains and the
   alert resolves.

The run gates six numbers (see :func:`criteria`): each alert's
clock-charged fire or resolve latency, measured from the fault that
drives it, against a bound set by the detection mechanics. That the
timeline runs in injection order and the workload sees no failure but
the revocation rejections is a tier-1 assertion on the same run
(``tests/harness/test_monitor_unit.py``).

Run with ``python -m repro.harness monitor``; writes
``BENCH_monitor_plane.json``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.harness.experiment import (
    SERVICES_HOST,
    ClientStack,
    PublishedObject,
    Testbed,
)
from repro.harness.kernel import BenchTarget, Criterion, gate
from repro.naming.records import OidRecord
from repro.net.address import Endpoint
from repro.net.health import ReplicaHealthTracker
from repro.net.retry import RetryPolicy
from repro.obs import AlertEngine, MetricsRegistry, RateRule, ThresholdRule
from repro.proxy.contentcache import ContentCache
from repro.sim.clock import SimClock

__all__ = [
    "MonitorReport",
    "run_monitor",
    "criteria",
    "TARGET",
]

#: Replica servers for the monitored documents (the feed — and nothing
#: the workload reads — stays on ginger, so a feed outage never starves
#: content and a replica kill never starves the feed).
REPLICA_SITES = {
    "root/europe/inria": "canardo.inria.fr",
    "root/us/cornell": "ensamble02.cornell.edu",
}

CLIENT_HOSTS = ("canardo.inria.fr", "ensamble02.cornell.edu")

#: Scrape cadence (simulated seconds): the alert engine evaluates — and
#: every collector-driven gauge refreshes — on this fixed grid.
SCRAPE_INTERVAL = 5.0

#: Simulated think time between accesses, and the healthy warmup
#: before the first fault.
THINK_TIME = 1.0
WARMUP_SECONDS = 20.0

#: Modelled CPU cost of evaluating one alert rule (charged to the sim
#: clock per rule per scrape — the monitor plane is not free).
EVALUATION_COST = 0.001

#: Revocation-view staleness policy for every client: poll at 30 s,
#: fail closed past 60 s; the alert warns at 45 s — after a missed poll,
#: before fail-closed.
MAX_STALENESS = 60.0
STALENESS_WARN = 45.0

#: Circuit-breaker tuning: three consecutive failures open a breaker;
#: the quarantine is shorter than the bench phases so the open → half
#: open transition happens on-screen.
FAILURE_THRESHOLD = 3
QUARANTINE_SECONDS = 20.0

#: The rate alert's trailing window (seconds).
REJECTION_WINDOW = 30.0

#: Content-cache TTL: short enough that a killed replica is missed (a
#: cache hit needs no RPC) within two scrape intervals, long enough
#: that the steady-state workload still exercises the hit path.
CACHE_TTL = 8.0

#: Every alert transition the run must show, in injection order:
#: latency key -> (rule, transition, the fault it is measured from,
#: latency bound). Detection is bounded by one content-cache expiry +
#: one failed access + one scrape; resolution adds the quarantine
#: window / poll interval the mechanism waits out.
ALERT_TRANSITIONS = {
    "circuit_fire_after_kill": (
        "replica_circuit_open", "fired_at", "replica_killed_at",
        CACHE_TTL + 3 * SCRAPE_INTERVAL,
    ),
    "circuit_resolve_after_restore": (
        "replica_circuit_open", "resolved_at", "replica_restored_at",
        QUARANTINE_SECONDS + 3 * SCRAPE_INTERVAL,
    ),
    "staleness_fire_after_feed_kill": (
        "revocation_staleness_high", "fired_at", "feed_killed_at",
        STALENESS_WARN + 3 * SCRAPE_INTERVAL,
    ),
    "staleness_resolve_after_restore": (
        "revocation_staleness_high", "resolved_at", "feed_restored_at",
        MAX_STALENESS / 2.0 + 3 * SCRAPE_INTERVAL,
    ),
    "rejections_fire_after_publish": (
        "revocation_rejections", "fired_at", "revocation_published_at",
        MAX_STALENESS / 2.0 + 3 * SCRAPE_INTERVAL,
    ),
    "rejections_resolve_after_abandon": (
        "revocation_rejections", "resolved_at", "revoked_doc_abandoned_at",
        REJECTION_WINDOW + 3 * SCRAPE_INTERVAL,
    ),
}

DOC_ELEMENTS = {
    "index.html": b"<html><body>monitor-plane workload page</body></html>",
    "logo.gif": b"GIF89a-monitor-bench-bytes",
}


@dataclass
class FaultTimes:
    """Clock-stamped fault injections (the latencies are measured
    against these)."""

    replica_killed_at: float = -1.0
    replica_restored_at: float = -1.0
    feed_killed_at: float = -1.0
    feed_restored_at: float = -1.0
    revocation_published_at: float = -1.0
    revoked_doc_abandoned_at: float = -1.0


@dataclass
class MonitorReport:
    """Everything the monitor run measured, as written to JSON."""

    scrape_interval: float
    scrapes: int
    rules: List[str]
    timeline: List[dict]
    fire_resolve: Dict[str, Dict[str, Optional[float]]]
    faults: FaultTimes
    accesses: int = 0
    ok: int = 0
    rejected: int = 0
    other_failures: int = 0
    final_firing: List[str] = field(default_factory=list)

    def alert_latencies(self) -> Dict[str, Optional[float]]:
        """Clock-charged fire/resolve latencies against the injections."""
        latencies: Dict[str, Optional[float]] = {}
        for key, (rule, transition, fault, _) in ALERT_TRANSITIONS.items():
            stamp = self.fire_resolve.get(rule, {}).get(transition)
            origin = getattr(self.faults, fault)
            latencies[key] = None if stamp is None or origin < 0 else stamp - origin
        return latencies

    def to_dict(self) -> dict:
        return dict(asdict(self), alert_latencies=self.alert_latencies())


# ----------------------------------------------------------------------
# World construction
# ----------------------------------------------------------------------


class _MonitorWorld:
    """The monitored testbed: two documents on inria+cornell replicas,
    the revocation feed on ginger, two instrumented client stacks, one
    shared registry, one alert engine."""

    def __init__(self, seed: int) -> None:
        self.clock = SimClock(0.0)
        self.registry = MetricsRegistry(clock=self.clock)
        self.testbed = Testbed(clock=self.clock, metrics=self.registry)
        self.seed = seed
        self.documents: Dict[str, PublishedObject] = {}
        self._publish_documents()
        self.stacks: List[ClientStack] = [
            self._client_stack(host) for host in CLIENT_HOSTS
        ]
        self.engine = self._build_engine()
        self.counts = {"accesses": 0, "ok": 0, "rejected": 0, "other": 0}
        self.scrapes = 0
        self._next_scrape = SCRAPE_INTERVAL

    # -- documents and servers -----------------------------------------

    def _publish_documents(self) -> None:
        testbed = self.testbed
        for label in ("healthy", "victim"):
            owner = testbed.document_owner(f"vu.nl/mon-{label}", DOC_ELEMENTS)
            published = PublishedObject(
                owner, owner.publish(validity=7 * 24 * 3600.0), owner.name
            )
            for site, host in REPLICA_SITES.items():
                testbed.add_replica(published, host, site, metrics=self.registry)
            testbed.naming.register(
                OidRecord(name=owner.name, oid=owner.oid, ttl=7 * 24 * 3600.0)
            )
            self.documents[label] = published

    def _client_stack(self, host: str) -> ClientStack:
        health = ReplicaHealthTracker(
            clock=self.clock,
            failure_threshold=FAILURE_THRESHOLD,
            quarantine_seconds=QUARANTINE_SECONDS,
            metrics=self.registry,
            metrics_client=host,
        )
        return self.testbed.client_stack(
            host,
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.05, seed=self.seed),
            health=health,
            content_cache=ContentCache(clock=self.clock, ttl=CACHE_TTL),
            revocation_max_staleness=MAX_STALENESS,
        )

    # -- alert engine ---------------------------------------------------

    def _build_engine(self) -> AlertEngine:
        engine = AlertEngine(
            self.registry, self.clock, evaluation_cost=EVALUATION_COST
        )
        engine.add_rule(
            ThresholdRule(
                "replica_circuit_open",
                metric="replica_circuit_state",
                threshold=2.0,
                op=">=",
                aggregate="max",
                # Replica ContactAddress strings only — service Endpoint
                # circuits (the feed during its outage) must not flap
                # this rule.
                label_prefixes={"address": "globedoc/replica"},
                severity="critical",
                description="some client's breaker to a replica is open",
            )
        )
        engine.add_rule(
            ThresholdRule(
                "revocation_staleness_high",
                metric="revocation_view_staleness_seconds",
                threshold=STALENESS_WARN,
                op=">",
                aggregate="max",
                severity="warning",
                description=(
                    "a client's revocation view is drifting toward the "
                    "fail-closed bound"
                ),
            )
        )
        engine.add_rule(
            RateRule(
                "revocation_rejections",
                metric="revocation_rejections_total",
                threshold=0.0,
                window_seconds=REJECTION_WINDOW,
                op=">",
                severity="critical",
                description="clients are rejecting revoked content right now",
            )
        )
        return engine

    # -- fault injection ------------------------------------------------

    def kill_server(self, host: str) -> None:
        """Take *host*'s object server (on ginger: the feed) off the net."""
        self.testbed.network.unregister(Endpoint(host, "objectserver"))

    def restore_server(self, host: str) -> None:
        self.testbed.network.register(
            Endpoint(host, "objectserver"),
            self.testbed.servers[host].rpc_server().handle_frame,
        )

    # -- workload -------------------------------------------------------

    def _access(self, stack: ClientStack, label: str, element: str) -> None:
        response = stack.proxy.handle(self.documents[label].url(element))
        self.counts["accesses"] += 1
        if response.ok:
            self.counts["ok"] += 1
        elif response.status == 403:
            self.counts["rejected"] += 1
        else:
            self.counts["other"] += 1

    def _scrape_if_due(self) -> None:
        while self.clock.now() >= self._next_scrape:
            self.engine.evaluate()
            self.scrapes += 1
            self._next_scrape += SCRAPE_INTERVAL

    def drive(
        self,
        seconds: float,
        labels: Tuple[str, ...] = ("healthy", "victim"),
        stop_when=None,
    ) -> None:
        """Run the mixed workload for *seconds* of simulated time,
        scraping on the fixed cadence. ``stop_when`` (optional callable)
        ends the phase early once it returns True (checked per tick)."""
        elements = sorted(DOC_ELEMENTS)
        deadline = self.clock.now() + seconds
        tick = 0
        while self.clock.now() < deadline:
            self.clock.advance(THINK_TIME)
            # Decorrelate stack/document/element choices so every client
            # touches every document (tick alone would lock each stack
            # to one label forever).
            stack = self.stacks[tick % len(self.stacks)]
            label = labels[(tick // len(self.stacks)) % len(labels)]
            self._access(stack, label, elements[(tick // 4) % len(elements)])
            self._scrape_if_due()
            tick += 1
            if stop_when is not None and stop_when():
                return


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------


def run_monitor(seed: int = 0) -> MonitorReport:
    """The full monitor bench: warmup, then three faults."""
    world = _MonitorWorld(seed)
    engine = world.engine
    faults = FaultTimes()

    # Phase 0 — healthy warmup: sessions bound, feeds synced, a few
    # clean scrapes on the books.
    world.drive(WARMUP_SECONDS)

    # Phase 1 — replica kill. The inria client is bound to the inria
    # replica; killing it forces retry → circuit open → failover.
    faults.replica_killed_at = world.clock.now()
    world.kill_server("canardo.inria.fr")
    world.drive(
        30.0,
        stop_when=lambda: engine.state_of("replica_circuit_open") == "firing",
    )
    faults.replica_restored_at = world.clock.now()
    world.restore_server("canardo.inria.fr")
    # Quarantine expiry (+ scrape) resolves the alert: the collector
    # re-reads breaker state, open → half-open once the window passes.
    world.drive(
        QUARANTINE_SECONDS + 4 * SCRAPE_INTERVAL,
        stop_when=lambda: engine.state_of("replica_circuit_open") == "resolved",
    )

    # Phase 2 — feed outage: staleness crosses the warning bound but
    # stays inside max_staleness, so nothing fails closed.
    faults.feed_killed_at = world.clock.now()
    world.kill_server(SERVICES_HOST)
    world.drive(
        STALENESS_WARN + 2 * SCRAPE_INTERVAL,
        stop_when=lambda: engine.state_of("revocation_staleness_high") == "firing",
    )
    faults.feed_restored_at = world.clock.now()
    world.restore_server(SERVICES_HOST)
    world.drive(
        3 * SCRAPE_INTERVAL,
        stop_when=lambda: engine.state_of("revocation_staleness_high")
        == "resolved",
    )

    # Phase 3 — key revocation: published to the (restored) feed; the
    # serving replicas never hear of it — client polling contains it.
    faults.revocation_published_at = world.clock.now()
    world.testbed.publish_revocation(
        world.documents["victim"].owner, "monitor bench: key compromise"
    )
    world.drive(
        MAX_STALENESS,
        stop_when=lambda: engine.state_of("revocation_rejections") == "firing",
    )
    # The workload abandons the revoked document; the rate window
    # drains and the alert resolves.
    faults.revoked_doc_abandoned_at = world.clock.now()
    world.drive(
        REJECTION_WINDOW + 4 * SCRAPE_INTERVAL,
        labels=("healthy",),
        stop_when=lambda: engine.state_of("revocation_rejections") == "resolved",
    )

    return MonitorReport(
        scrape_interval=SCRAPE_INTERVAL,
        scrapes=world.scrapes,
        rules=[rule.name for rule in engine.rules],
        timeline=engine.timeline_dicts(),
        fire_resolve=engine.fire_resolve_times(),
        faults=faults,
        accesses=world.counts["accesses"],
        ok=world.counts["ok"],
        rejected=world.counts["rejected"],
        other_failures=world.counts["other"],
        final_firing=engine.firing(),
    )


# ----------------------------------------------------------------------
# Gates
# ----------------------------------------------------------------------


def criteria(report: MonitorReport) -> List[Criterion]:
    """The gates: every alert transition's latency from its fault,
    bounded by the detection mechanics (scrape cadence, poll interval,
    quarantine). A transition that never happened reads ``math.inf``."""
    out = []
    for key, latency in report.alert_latencies().items():
        latency = math.inf if latency is None else latency
        bound = ALERT_TRANSITIONS[key][3]
        out.append(
            gate(
                f"latency[{key}]", latency, "<=", bound,
                f"{key}: {latency:.1f}s exceeds bound {bound:.1f}s",
            )
        )
    return out


TARGET = BenchTarget("monitor", "BENCH_monitor_plane.json", run_monitor, criteria)
