"""Revocation bench: compromise-to-containment latency, feed overhead.

Measures the two numbers that price the revocation subsystem:

* **Containment latency** — a key-compromise revocation is published to
  the feed at *t0*; how long until every proxy rejects the compromised
  object? Each proxy polls the feed at half its configured max-staleness
  window, so the latency distribution is bounded by the poll interval —
  the knob the percentiles here make concrete.
* **Steady-state feed overhead** — what the seventh check costs when
  nothing is revoked: mean access time with the checker polling versus
  the plain six-check baseline on the identical request schedule.

The containment world is deliberately adversarial: the replicas live on
servers that never receive the revocation (a compromised or lagging
server keeps serving — exactly the case client-side checking exists
for), while the proxies pull the feed from the ginger object server,
which hosts no replica. Distribution to the feed goes through
:meth:`~repro.harness.experiment.Testbed.publish_revocation`, the
owner-side coordinator path.

Run with ``python -m repro.harness revocation [--quick]``; writes
``BENCH_revocation.json`` for the CI gate.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import List, Optional, Tuple

from repro.harness.experiment import ClientStack, PublishedObject, Testbed
from repro.harness.kernel import BenchTarget, Criterion, gate
from repro.naming.records import OidRecord
from repro.util.stats import percentile, summarize

__all__ = [
    "ProxyContainment",
    "OverheadPoint",
    "RevocationReport",
    "run_revocation",
    "criteria",
    "TARGET",
]

#: Replica servers that keep serving after the compromise (they never
#: see the revocation) — the case the client-side check exists for.
REPLICA_SITES = {
    "root/europe/inria": "canardo.inria.fr",
    "root/us/cornell": "ensamble02.cornell.edu",
}

CLIENT_HOSTS = ("sporty.cs.vu.nl", "canardo.inria.fr", "ensamble02.cornell.edu")

ELEMENTS = {
    "index.html": b"<html><body>soon to be revoked, genuine until then</body></html>",
    "logo.gif": b"GIF89a-revocation-bench-bytes",
}

#: Smallest max-staleness window in the sweep; proxy *i* gets
#: ``BASE_STALENESS + i * STALENESS_STEP`` (all poll at half their window).
BASE_STALENESS = 20.0
STALENESS_STEP = 10.0

#: Simulated think time between steady-state accesses, and between
#: containment probes — the browsing cadence the poll interval amortises
#: over.
THINK_TIME = 1.0

#: Grace on the containment gate: probe quantisation plus access costs.
CONTAINMENT_SLACK = 5.0

#: Gate: the feed's steady-state cost must stay below this multiple of
#: the baseline while actually polling (at least
#: :data:`MIN_STEADY_REFRESHES`) — the poll must not dominate the access
#: pipeline it protects. (The refresh is one extra RPC per poll interval
#: against ~3 ms cached accesses, so the ratio sits near 1.5–1.8; the
#: gate leaves headroom for workload changes, not for regressions.)
MAX_OVERHEAD_RATIO = 2.5
MIN_STEADY_REFRESHES = 2


@dataclass
class ProxyContainment:
    """One proxy's journey from compromise to containment."""

    host: str
    max_staleness: float
    poll_interval: float
    stale_serves: int = 0
    stale_bytes: int = 0
    other_failures: int = 0
    contained: bool = False
    containment_seconds: float = -1.0
    rejection_error: str = ""
    post_containment_ok: int = 0
    feed_refreshes: int = 0


@dataclass
class OverheadPoint:
    """Steady-state access cost of one stack flavour (nothing revoked)."""

    enabled: bool
    accesses: int
    ok: int
    mean_access_seconds: float
    p95_access_seconds: float
    feed_refreshes: int


@dataclass
class RevocationReport:
    """Containment sweep + overhead comparison, as written to JSON."""

    proxies: int
    feed_sites_reached: List[str]
    containment: List[ProxyContainment] = field(default_factory=list)
    baseline: Optional[OverheadPoint] = None
    enabled: Optional[OverheadPoint] = None

    @property
    def containment_latencies(self) -> List[float]:
        return [
            p.containment_seconds for p in self.containment if p.contained
        ]

    @property
    def overhead_ratio(self) -> float:
        if self.baseline is None or self.enabled is None:
            return 0.0
        if self.baseline.mean_access_seconds <= 0:
            return 0.0
        return self.enabled.mean_access_seconds / self.baseline.mean_access_seconds

    def to_dict(self) -> dict:
        latencies = self.containment_latencies
        summary = (
            {
                "p50_seconds": percentile(latencies, 50),
                "p90_seconds": percentile(latencies, 90),
                "max_seconds": max(latencies),
                "contained": len(latencies),
                "proxies": self.proxies,
            }
            if latencies
            else {"contained": 0, "proxies": self.proxies}
        )
        return {
            "proxies": self.proxies,
            "feed_sites_reached": self.feed_sites_reached,
            "containment": [asdict(p) for p in self.containment],
            "containment_summary": summary,
            "baseline": asdict(self.baseline) if self.baseline else None,
            "enabled": asdict(self.enabled) if self.enabled else None,
            "overhead_ratio": self.overhead_ratio,
        }


# ----------------------------------------------------------------------
# World construction
# ----------------------------------------------------------------------


def _build_world() -> Tuple[Testbed, PublishedObject]:
    """A testbed whose replicas live *off* the feed server: documents at
    inria and cornell, the revocation feed (and nothing else) on ginger."""
    testbed = Testbed()
    owner = testbed.document_owner("vu.nl/revocation", ELEMENTS)
    published = PublishedObject(
        owner, owner.publish(validity=7 * 24 * 3600.0), owner.name
    )
    for site, host in REPLICA_SITES.items():
        testbed.add_replica(published, host, site)
    testbed.naming.register(OidRecord(name=owner.name, oid=owner.oid, ttl=3600.0))
    return testbed, published


# ----------------------------------------------------------------------
# Phase 1: steady-state feed overhead
# ----------------------------------------------------------------------


def _run_overhead(quick: bool, enabled: bool) -> OverheadPoint:
    """One stack flavour through the fixed schedule; nothing revoked."""
    testbed, published = _build_world()
    kwargs = {"revocation_max_staleness": BASE_STALENESS} if enabled else {}
    stack = testbed.client_stack("canardo.inria.fr", **kwargs)
    accesses = 30 if quick else 120
    names = list(ELEMENTS)
    totals: List[float] = []
    ok = 0
    for i in range(accesses):
        testbed.clock.advance(THINK_TIME)
        started = testbed.clock.now()
        response = stack.proxy.handle(published.url(names[i % len(names)]))
        totals.append(testbed.clock.now() - started)
        if response.ok:
            ok += 1
    stats = summarize(totals)
    return OverheadPoint(
        enabled=enabled,
        accesses=accesses,
        ok=ok,
        mean_access_seconds=stats.mean,
        p95_access_seconds=stats.p95,
        feed_refreshes=(
            stack.revocation.stats.refreshes if stack.revocation is not None else 0
        ),
    )


# ----------------------------------------------------------------------
# Phase 2: compromise-to-containment latency
# ----------------------------------------------------------------------


def _run_containment(quick: bool) -> Tuple[List[ProxyContainment], List[str]]:
    testbed, published = _build_world()
    count = 3 if quick else 8
    fleet: List[Tuple[ProxyContainment, ClientStack]] = []
    for i in range(count):
        host = CLIENT_HOSTS[i % len(CLIENT_HOSTS)]
        staleness = BASE_STALENESS + STALENESS_STEP * i
        stack = testbed.client_stack(host, revocation_max_staleness=staleness)
        record = ProxyContainment(
            host=host,
            max_staleness=staleness,
            poll_interval=stack.revocation.poll_interval,
        )
        fleet.append((record, stack))

    url = published.url("index.html")
    # Warm every proxy: session bound, feed synced, caches hot.
    for record, stack in fleet:
        response = stack.proxy.handle(url)
        if not response.ok:
            record.other_failures += 1

    # The compromise: the serving replicas never hear of it — only the
    # proxies' polling can contain them.
    t0 = testbed.clock.now()
    reached = testbed.publish_revocation(published.owner, "bench: key compromise")

    deadline = t0 + max(r.max_staleness for r, _ in fleet) + 3 * CONTAINMENT_SLACK
    while any(not r.contained for r, _ in fleet) and testbed.clock.now() < deadline:
        testbed.clock.advance(THINK_TIME)
        for record, stack in fleet:
            if record.contained:
                continue
            response = stack.proxy.handle(url)
            if response.ok:
                record.stale_serves += 1
                record.stale_bytes += len(response.content)
            elif response.status == 403:
                record.contained = True
                record.containment_seconds = testbed.clock.now() - t0
                record.rejection_error = response.security_failure
            else:
                record.other_failures += 1

    # Containment must hold: one more access each, no recovery allowed.
    for record, stack in fleet:
        if record.contained:
            response = stack.proxy.handle(url)
            if response.ok:
                record.post_containment_ok += 1
        record.feed_refreshes = (
            stack.revocation.stats.refreshes if stack.revocation is not None else 0
        )
    return [record for record, _ in fleet], reached


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def run_revocation(quick: bool = False, seed: int = 0) -> RevocationReport:
    """The full bench: containment sweep, then the overhead comparison.

    The schedule is fixed, so *seed* changes nothing; it is accepted for
    the registry's ``run(quick, seed)`` shape."""
    containment, reached = _run_containment(quick)
    report = RevocationReport(
        proxies=len(containment),
        feed_sites_reached=reached,
        containment=containment,
    )
    report.baseline = _run_overhead(quick, enabled=False)
    report.enabled = _run_overhead(quick, enabled=True)
    return report


def criteria(report: RevocationReport) -> List[Criterion]:
    """The CI gates.

    * every proxy contained, each within its staleness window (+ slack),
      rejecting with the dedicated :class:`RevokedKeyError`;
    * containment is permanent — no access succeeds afterwards;
    * no spurious non-security failures during the sweep;
    * both overhead schedules fully succeed, and the feed's steady-state
      cost stays below :data:`MAX_OVERHEAD_RATIO` while actually polling.
    """
    out: List[Criterion] = []
    for index, p in enumerate(report.containment):
        tag = f"[{index}:{p.host}]"
        out.append(
            gate(
                f"contained{tag}", p.contained, "==", True,
                f"proxy on {p.host} (staleness {p.max_staleness}) never contained",
            )
        )
        if not p.contained:
            continue
        out += [
            gate(
                f"containment_seconds{tag}",
                p.containment_seconds, "<=", p.max_staleness + CONTAINMENT_SLACK,
                f"containment took {p.containment_seconds:.1f}s on {p.host}, "
                f"past its {p.max_staleness:.0f}s staleness window",
            ),
            gate(
                f"rejection_error{tag}", p.rejection_error, "==", "RevokedKeyError",
                f"rejection on {p.host} attributed to {p.rejection_error!r}, "
                "not RevokedKeyError",
            ),
            gate(
                f"post_containment_ok{tag}", p.post_containment_ok, "==", 0,
                f"revoked content served after containment on {p.host}",
            ),
            gate(
                f"other_failures{tag}", p.other_failures, "==", 0,
                f"{p.other_failures} non-security failures on {p.host}",
            ),
        ]
    schedules = (("baseline", report.baseline), ("feed-enabled", report.enabled))
    for label, point in schedules:
        if point is not None:
            out.append(
                gate(
                    f"schedule_ok[{label}]", point.ok, ">=", point.accesses,
                    f"{label} schedule had failing accesses",
                )
            )
    if report.enabled is not None:
        refreshes = report.enabled.feed_refreshes
        out.append(
            gate(
                "feed_refreshes", refreshes, ">=", MIN_STEADY_REFRESHES,
                f"feed polled only {refreshes} times — "
                "overhead number is not steady-state",
            )
        )
    ratio = report.overhead_ratio
    out.append(
        gate(
            "overhead_ratio", ratio, "<=", MAX_OVERHEAD_RATIO,
            f"steady-state feed overhead ratio {ratio:.3f} > {MAX_OVERHEAD_RATIO}",
        )
    )
    return out


TARGET = BenchTarget("revocation", "BENCH_revocation.json", run_revocation, criteria)
