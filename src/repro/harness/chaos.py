"""Chaos harness: availability under faults, genuineness always.

Drives the full client stack (proxy → binder → session → RPC) through a
:class:`~repro.net.faults.FlakyTransport` at swept drop/corrupt rates,
against three genuine replicas — and, halfway through each run, crashes
the primary replica outright. Two stacks run the identical request
schedule:

* **resilient** — retry/backoff RPC (:class:`RetryingRpcClient`), a
  shared :class:`ReplicaHealthTracker`, and session failover enabled;
* **baseline** — the pre-resilience stack: single-shot RPC, no
  failover (``max_rebinds=0``).

The gates measure the claim §3.1.2's "at most denial of service" bound
leaves open: **resilience earns availability** — the resilient stack
stays near 100 % while genuine replicas exist, and the baseline
measurably degrades. The report also counts the bytes each point served
that were not the owner's; that the count is zero everywhere (faults may
cost availability, never integrity) is a tier-1 assertion on the same
run (``tests/harness/test_chaos_unit.py``).

Run with ``python -m repro.harness chaos``; writes
``BENCH_chaos_resilience.json``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import List, Tuple

from repro.harness.experiment import SERVICES_HOST, PublishedObject, Testbed
from repro.harness.kernel import BenchTarget, Criterion, gate
from repro.net.address import Endpoint
from repro.net.faults import FaultPlan, FlakyTransport
from repro.net.health import ReplicaHealthTracker
from repro.net.retry import RetryPolicy
from repro.obs import SpanStats, Tracer
from repro.sim.random import derive_seed

__all__ = [
    "ChaosPoint",
    "ChaosReport",
    "run_chaos",
    "criteria",
    "TARGET",
]

#: Gate: resilient availability must stay at or above this at every
#: drop rate up to :data:`AVAILABILITY_MAX_DROP`.
AVAILABILITY_TARGET = 0.99
AVAILABILITY_MAX_DROP = 0.2

#: The three-replica deployment: primary plus two remote sites.
REPLICA_SITES = {
    "root/europe/vu": SERVICES_HOST,  # created by Testbed.publish
    "root/europe/inria": "canardo.inria.fr",
    "root/us/cornell": "ensamble02.cornell.edu",
}

CLIENT_HOST = "sporty.cs.vu.nl"

DROP_RATES = (0.0, 0.1, 0.2, 0.3)
CORRUPT_RATE = 0.02

#: Requests per sweep point (the primary crashes after half of them).
REQUESTS = 120

ELEMENTS = {
    "index.html": b"<html><body>the one true chaos page</body></html>",
    "style.css": b"body { color: #222; } /* genuine bytes */",
}

#: Cold-bind cadence: drop all proxy sessions every this many requests
#: so the run exercises the full binding pipeline, not just warm
#: element fetches.
SESSION_DROP_EVERY = 8


@dataclass
class ChaosPoint:
    """Outcome of one (drop rate, stack flavour) sweep point."""

    drop_probability: float
    corrupt_probability: float
    requests: int
    ok: int
    failed: int
    unverified_bytes: int
    retries: int
    failovers: int
    quarantines: int
    backoff_seconds: float
    transport_requests: int
    drops_injected: int
    corruptions_injected: int

    @property
    def availability(self) -> float:
        return self.ok / self.requests if self.requests else 0.0


@dataclass
class ChaosReport:
    """The full sweep: resilient vs baseline at every rate."""

    replicas: int
    resilient: List[ChaosPoint] = field(default_factory=list)
    baseline: List[ChaosPoint] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "replicas": self.replicas,
            "resilient": [
                dict(asdict(p), availability=p.availability) for p in self.resilient
            ],
            "baseline": [
                dict(asdict(p), availability=p.availability) for p in self.baseline
            ],
        }


def _build_world() -> Tuple[Testbed, PublishedObject]:
    """A testbed with the document replicated at all three sites."""
    testbed = Testbed()
    owner = testbed.document_owner("vu.nl/chaos", ELEMENTS)
    published = testbed.publish(owner, validity=7 * 24 * 3600.0)
    for site, host in REPLICA_SITES.items():
        if host != SERVICES_HOST:  # the primary replica already exists
            testbed.add_replica(published, host, site)
    return testbed, published


def _run_point(
    drop: float,
    corrupt: float,
    requests: int,
    seed: int,
    resilient: bool,
) -> ChaosPoint:
    """One sweep point: fresh world, fresh stack, fixed request schedule.

    Halfway through, the primary replica's endpoint is torn down — the
    crash every resilient claim must survive while two genuine replicas
    remain.
    """
    testbed, published = _build_world()
    plan = FaultPlan(
        drop_probability=drop,
        corrupt_probability=corrupt,
        seed=derive_seed(seed, "faults", int(drop * 1000), int(resilient)),
    )
    flaky = FlakyTransport(testbed.network.transport_for(CLIENT_HOST), plan)
    spans = SpanStats()
    if resilient:
        health = ReplicaHealthTracker(
            clock=testbed.clock, failure_threshold=3, quarantine_seconds=600.0
        )
        policy = RetryPolicy(
            max_attempts=5,
            base_delay=0.02,
            multiplier=2.0,
            max_delay=0.5,
            jitter=0.1,
            seed=derive_seed(seed, "retry", int(drop * 1000)),
        )
        stack = testbed.client_stack(
            CLIENT_HOST,
            transport=flaky,
            retry_policy=policy,
            health=health,
            tracer=Tracer(clock=testbed.clock, sinks=(spans,), origin=CLIENT_HOST),
        )
    else:
        health = None
        stack = testbed.client_stack(CLIENT_HOST, transport=flaky, max_rebinds=0)
    proxy = stack.proxy

    ok = failed = unverified = 0
    names = list(ELEMENTS)
    for i in range(requests):
        if i == requests // 2:
            # Crash the primary: its address stays registered (the
            # location service is not told), so only client-side
            # resilience can keep the document reachable.
            testbed.network.unregister(Endpoint(SERVICES_HOST, "objectserver"))
        if i % SESSION_DROP_EVERY == 0:
            proxy.drop_all_sessions()
        name = names[i % len(names)]
        response = proxy.handle(published.url(name))
        if response.ok:
            if response.content == ELEMENTS[name]:
                ok += 1
            else:
                unverified += len(response.content)
        else:
            failed += 1
    # The resilience work of the whole run, off the counters the stack
    # already keeps; a failover is a ``session.failover`` span that
    # closed ok (an error one found no replica left to rebind to).
    counters = getattr(stack.rpc, "counters", None)
    rebinds = spans.get("session.failover")
    return ChaosPoint(
        drop_probability=drop,
        corrupt_probability=corrupt,
        requests=requests,
        ok=ok,
        failed=failed,
        unverified_bytes=unverified,
        retries=counters.retries if counters is not None else 0,
        failovers=rebinds.count - rebinds.errors if rebinds is not None else 0,
        quarantines=health.quarantines if health is not None else 0,
        backoff_seconds=counters.backoff_seconds if counters is not None else 0.0,
        transport_requests=flaky.stats.requests,
        drops_injected=flaky.drops,
        corruptions_injected=flaky.corruptions,
    )


def run_chaos(seed: int = 0) -> ChaosReport:
    """The full sweep: each rate once resilient, once baseline."""
    report = ChaosReport(replicas=len(REPLICA_SITES))
    for drop in DROP_RATES:
        report.resilient.append(
            _run_point(drop, CORRUPT_RATE, REQUESTS, seed, resilient=True)
        )
        report.baseline.append(
            _run_point(drop, CORRUPT_RATE, REQUESTS, seed, resilient=False)
        )
    return report


def criteria(report: ChaosReport) -> List[Criterion]:
    """The gates: resilient availability ≥ 99 % at drop ≤ 0.2, and the
    resilient stack beats the baseline in aggregate (the layer does the
    work)."""
    out = [
        gate(
            f"availability[drop={point.drop_probability}]",
            point.availability, ">=", AVAILABILITY_TARGET,
            f"resilient availability {point.availability:.3f} < {AVAILABILITY_TARGET} "
            f"at drop={point.drop_probability}",
        )
        for point in report.resilient
        if point.drop_probability <= AVAILABILITY_MAX_DROP
    ]
    total_res = sum(p.ok for p in report.resilient)
    total_base = sum(p.ok for p in report.baseline)
    out.append(
        gate(
            "resilient_ok_over_baseline", total_res, ">", total_base,
            f"resilience layer earned nothing: {total_res} ok vs baseline {total_base}",
        )
    )
    return out


TARGET = BenchTarget("chaos", "BENCH_chaos_resilience.json", run_chaos, criteria)
