"""Profile bench: cross-process causal traces, critical paths, SLOs.

Every simulated process has its own tracer — the ginger services, a peer
object server at INRIA, and each client proxy — so the only thing
holding a trace together is the propagated trace context in the RPC
envelopes. That is exactly the paper's measurement problem at fleet
scale: the Fig. 4 "timers in various parts of the proxy and server code"
only compose into one end-to-end picture if the server's work can be
causally attributed to the client access that caused it.

The workload mixes the traffic classes of a live GlobeDoc fleet:

* **reads** — honest proxy accesses (verification fast path + content
  cache) from the Amsterdam client;
* **writes + gossip** — granted writers publishing signed deltas over
  RPC to their home servers, then anti-entropy rounds between ginger
  and the INRIA peer (``gossip.run`` traces whose ``server.handle`` /
  ``versioning.put_delta`` / ``storage.journal`` work lands on the
  *other* process's tracer);
* **revocation** — explicit feed refreshes (``revocation.refresh``
  roots) alongside the in-access revocation checks;
* **SLO breach + recovery** — a lossy-transport phase whose retry
  backoff pushes accesses over the latency objective, driving the
  fast burn-rate alert through pending → firing → resolved once the
  fault clears and the window drains. Both objectives are sinks on the
  processes' tracers, counting the proxies' ``proxy.handle`` spans;
* **adversarial probes** — one per violated security property
  (authenticity, consistency, freshness), each expected to close the
  responsible ``check.*`` span with error status.

``BENCH_profile.json`` records the stitching health, the per-span-name
latency table, the critical-path attribution per cost category,
critical-path p50/p99, the top-5 hottest span families, the SLO verdicts
with the alert timeline, and the census of which check rejected what.
Two numbers are gated: the cross-process stitch rate must be 1.0 (every
server/gossip span reachable from its client root), and the category
attribution must sum to each trace's duration within 1%. The rest — the
roots, span families, categories, burn lifecycle, rejection census and
workload health — is asserted by tier-1 on the same run
(``tests/harness/test_profile_unit.py``).

Run with ``python -m repro.harness profile``.
"""

from __future__ import annotations

import shutil
import tempfile
from typing import Dict, List

from repro.attacks.adversary import AttackOutcome, run_attack_probe
from repro.attacks.malicious_server import (
    ElementSwapBehavior,
    MaliciousReplica,
    TamperBehavior,
)
from repro.crypto.keys import KeyPair
from repro.crypto.verifycache import VerificationCache
from repro.globedoc.oid import ObjectId
from repro.harness.experiment import SERVICES_HOST, Testbed
from repro.harness.kernel import BenchTarget, Criterion, gate
from repro.net.address import Endpoint
from repro.net.faults import FaultPlan, FlakyTransport
from repro.net.retry import RetryPolicy
from repro.net.rpc import RpcClient
from repro.obs import (
    AlertEngine,
    CriticalPathProfiler,
    LatencyObjective,
    RingBufferSink,
    SloPlane,
    SpanStats,
    Tracer,
    TraceAssembler,
)
from repro.obs.slo import AvailabilityObjective, BurnWindow
from repro.proxy.contentcache import ContentCache
from repro.sim.clock import SimClock
from repro.sim.random import derive_seed
from repro.versioning import DeltaDag, SignedDelta, WriterGrant
from repro.versioning.writer import DocumentWriter

__all__ = [
    "run_profile",
    "criteria",
    "TARGET",
]

READ_HOST = "sporty.cs.vu.nl"
WRITER_HOST = "ensamble02.cornell.edu"
PEER_HOST = "canardo.inria.fr"
BREACH_HOST = "ensamble02.cornell.edu"

ELEMENTS = {
    "index.html": b"<html><body>" + b"profile me " * 96 + b"</body></html>",
    "style.css": b"body { margin: 0; } /* profiled */",
    "logo.png": bytes(range(256)) * 48,
}

#: Per-trace attribution must close to this relative tolerance (the
#: boundary sweep is exact; this absorbs float rounding only).
ATTRIBUTION_TOLERANCE = 0.01

#: Latency SLO: 99% of proxy accesses complete within 250 ms.
LATENCY_TARGET = 0.99
LATENCY_THRESHOLD_S = 0.25

SESSION_DROP_EVERY = 6

#: Workload size: verified reads, write+gossip rounds, explicit feed
#: refreshes, and the requests of the SLO breach and its recovery.
READS = 144
WRITE_ROUNDS = 8
REFRESHES = 8
BREACH_REQUESTS = 48
RECOVERY_REQUESTS = 12

#: The simulated processes, one tracer each.
PROCESSES = (
    "server-ginger",
    "server-inria",
    "proxy-sporty",
    "proxy-inria",
    "proxy-cornell",
    "writer-cornell",
)


def run_profile(seed: int = 0) -> dict:
    """Drive the mixed workload, return the JSON-ready report."""
    scratch = tempfile.mkdtemp(prefix="repro-profile-")
    try:
        return _run(seed, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(seed: int, scratch: str) -> dict:
    clock = SimClock()
    clock.advance(100.0)
    # One tracer and one ring per simulated process; one SpanStats over
    # all of them for the per-name table and the rejection census.
    tracers = {origin: Tracer(clock=clock, origin=origin) for origin in PROCESSES}
    rings = {origin: RingBufferSink(capacity=65536) for origin in PROCESSES}
    stats = SpanStats()

    # ---------------------------------------------------------- testbed
    # data_dir turns on durable versioning journaling, so delta
    # admission produces the storage.journal spans the storage category
    # attributes. storage_sync off: the bench profiles the pipeline, not
    # the disk.
    testbed = Testbed(
        clock=clock,
        tracer=tracers["server-ginger"],
        data_dir=scratch,
        storage_sync=False,
    )
    peer_server = testbed.start_server(PEER_HOST, tracer=tracers["server-inria"])

    published = testbed.publish(
        testbed.document_owner("vu.nl/profile", ELEMENTS), validity=7 * 24 * 3600.0
    )
    # The freshness probe's document: one element entry lapses a minute
    # from now (the certificate itself stays valid); the probe runs
    # after the recovery phase, many simulated minutes later.
    stale = testbed.publish(
        testbed.document_owner(
            "vu.nl/profile-stale", {"index.html": ELEMENTS["index.html"]}
        ),
        validity=7 * 24 * 3600.0,
        per_element_expiry={"index.html": clock.now() + 60.0},
    )

    # Versioned object + grants on both servers (setup, untraced).
    owner_keys = KeyPair.generate(1024)
    oid = ObjectId.from_public_key(owner_keys.public)
    writers: Dict[str, DocumentWriter] = {}
    for index in range(2):
        writer_id = f"writer{index:02d}"
        keys = KeyPair.generate(1024)
        grant = WriterGrant.issue(
            owner_keys, oid, writer_id, keys.public, granted_at=clock.now()
        )
        for server in (testbed.object_server, peer_server):
            server.versioning.register_object(owner_keys.public)
            server.versioning.put_grant(oid.hex, grant)
        writers[writer_id] = DocumentWriter(keys, writer_id, oid, clock)

    # ------------------------------------------------------- SLO plane
    # The objectives count the proxies' proxy.handle spans: they join
    # the tracers' sinks below, with the rings.
    engine = AlertEngine(clock, evaluation_cost=0.0005)
    slo = SloPlane(engine)
    latency = slo.add(
        LatencyObjective(
            "access_latency", threshold_s=LATENCY_THRESHOLD_S, target=LATENCY_TARGET
        ),
        fast=BurnWindow(window_seconds=60.0, threshold=10.0, severity="critical"),
        slow=BurnWindow(window_seconds=300.0, threshold=2.0, severity="warning"),
    )
    slo.add(
        AvailabilityObjective("access_availability", target=0.75),
        fast=BurnWindow(window_seconds=60.0, threshold=3.0, severity="critical"),
        slow=None,
    )

    # Recording starts here: setup spans (publish, grants) stay untraced
    # so every recorded root belongs to the workload.
    for origin, tracer in tracers.items():
        for sink in (rings[origin], stats, *slo.objectives):
            tracer.add_sink(sink)
    workload: Dict[str, object] = {}

    # ------------------------------------------------------------ reads
    read_stack = testbed.client_stack(
        READ_HOST,
        verification_cache=VerificationCache(),
        content_cache=ContentCache(
            clock=testbed.network.host(READ_HOST),
            ttl=30.0,
            tracer=tracers["proxy-sporty"],
        ),
        revocation_max_staleness=120.0,
        tracer=tracers["proxy-sporty"],
    )
    names = list(ELEMENTS)
    read_ok = 0
    for i in range(READS):
        if i % SESSION_DROP_EVERY == 0:
            read_stack.proxy.drop_all_sessions()
        if read_stack.proxy.handle(published.url(names[i % len(names)])).ok:
            read_ok += 1
        if i % 8 == 0:
            engine.evaluate()
    workload["reads"] = READS
    workload["read_ok"] = read_ok

    # -------------------------------------------------- writes + gossip
    writer_rpc = RpcClient(
        testbed.network.transport_for(WRITER_HOST),
        tracer=tracers["writer-cornell"],
    )
    home_endpoints = {
        "writer00": testbed.objectserver_endpoint,
        "writer01": Endpoint(PEER_HOST, "objectserver"),
    }
    ginger_rpc = RpcClient(
        testbed.network.transport_for(SERVICES_HOST),
        tracer=tracers["server-ginger"],
    )
    peer_rpc = RpcClient(
        testbed.network.transport_for(PEER_HOST),
        tracer=tracers["server-inria"],
    )
    views = {writer_id: DeltaDag() for writer_id in writers}
    writes = 0
    gossip_rounds = 0
    gossip_pulled = 0
    gossip_pushed = 0
    writer_tracer = tracers["writer-cornell"]
    for round_index in range(WRITE_ROUNDS):
        for writer_id, writer in sorted(writers.items()):
            home = home_endpoints[writer_id]
            with writer_tracer.span(
                "session.publish", writer=writer_id, round=round_index
            ) as span:
                bundle = writer_rpc.call(
                    home,
                    "versioning.fetch",
                    oid_hex=oid.hex,
                    have_heads=views[writer_id].heads(),
                )
                views[writer_id].add_all(
                    SignedDelta.from_dict(d) for d in bundle["deltas"]
                )
                delta = writer.put(
                    views[writer_id],
                    f"section-{round_index % 3}",
                    bytes(f"round {round_index} by {writer_id}", "ascii"),
                )
                result = writer_rpc.call(
                    home,
                    "versioning.publish_delta",
                    oid_hex=oid.hex,
                    delta=delta.to_dict(),
                )
                span.set_attribute("added", bool(result.get("added")))
            writes += 1
            clock.advance(0.25)
        # Anti-entropy both ways: ginger pulls from INRIA, then INRIA
        # pulls from ginger. Each round is its own gossip.run trace
        # rooted on the initiating server's tracer.
        for initiator, rpc, peer in (
            (testbed.object_server, ginger_rpc, Endpoint(PEER_HOST, "objectserver")),
            (peer_server, peer_rpc, testbed.objectserver_endpoint),
        ):
            outcome = initiator.gossip_versioned(rpc, peer, oid.hex)
            gossip_rounds += 1
            gossip_pulled += outcome["pulled"]
            gossip_pushed += outcome["pushed"]
        engine.evaluate()
    # Content-addressed: equal heads name equal histories.
    ginger_heads = testbed.object_server.versioning.heads(oid.hex)
    converged = ginger_heads == peer_server.versioning.heads(oid.hex)
    workload.update(
        writes=writes,
        gossip_rounds=gossip_rounds,
        gossip_pulled=gossip_pulled,
        gossip_pushed=gossip_pushed,
        converged=converged,
    )

    # ------------------------------------------------------- revocation
    for _ in range(REFRESHES):
        read_stack.revocation.refresh()
        clock.advance(1.0)
    workload["revocation_refreshes"] = REFRESHES

    # --------------------------------------------- SLO breach + recovery
    plan = FaultPlan(
        drop_probability=0.35, seed=derive_seed(seed, "profile-faults")
    )
    flaky = FlakyTransport(testbed.network.transport_for(BREACH_HOST), plan)
    breach_stack = testbed.client_stack(
        BREACH_HOST,
        transport=flaky,
        retry_policy=RetryPolicy(
            max_attempts=4,
            base_delay=0.2,
            max_delay=1.0,
            seed=derive_seed(seed, "profile-retry"),
        ),
        tracer=tracers["proxy-cornell"],
    )
    breach_ok = 0
    for i in range(BREACH_REQUESTS):
        if i % SESSION_DROP_EVERY == 0:
            breach_stack.proxy.drop_all_sessions()
        if breach_stack.proxy.handle(published.url(names[i % len(names)])).ok:
            breach_ok += 1
        if i % 4 == 3:
            engine.evaluate()
    workload["breach_requests"] = BREACH_REQUESTS
    workload["breach_ok"] = breach_ok

    # Fault clears; healthy traffic plus enough elapsed time for both
    # burn windows to drain their bad samples.
    recovery_ok = 0
    for i in range(RECOVERY_REQUESTS):
        if read_stack.proxy.handle(published.url(names[i % len(names)])).ok:
            recovery_ok += 1
        clock.advance(10.0)
        engine.evaluate()
    for _ in range(30):
        clock.advance(12.0)
        engine.evaluate()
    workload["recovery_requests"] = RECOVERY_REQUESTS
    workload["recovery_ok"] = recovery_ok

    # ------------------------------------------------ adversarial probes
    # Last, because from here on malicious replicas hijack the INRIA and
    # Cornell lookup rings for the profiled document: a tampering
    # replica at the Paris client's own site (authenticity), an
    # element-swapping one at Cornell's (consistency), then the stale
    # element entry published at setup (freshness).
    for host, behavior in (
        (PEER_HOST, TamperBehavior(target="index.html")),
        (
            BREACH_HOST,
            ElementSwapBehavior(when_asked_for="index.html", serve_instead="style.css"),
        ),
    ):
        evil = MaliciousReplica(
            host=host, document=published.document, behavior=behavior, service="evil"
        )
        testbed.install_replica(evil, published.oid_hex)
    probes: Dict[str, str] = {}
    for label, host, origin, url in (
        ("tamper", PEER_HOST, "proxy-inria", published.url("index.html")),
        ("element_swap", BREACH_HOST, "proxy-cornell", published.url("index.html")),
        ("stale_element", READ_HOST, "proxy-sporty", stale.url("index.html")),
    ):
        stack = testbed.client_stack(host, max_rebinds=0, tracer=tracers[origin])
        result = run_attack_probe(stack.proxy, url, ELEMENTS["index.html"])
        probes[label] = (
            result.failure_type
            if result.outcome is AttackOutcome.DETECTED
            else str(result.outcome)
        )
    workload["probes"] = probes

    # --------------------------------------------------------- assemble
    assembler = TraceAssembler()
    for ring in rings.values():
        assembler.add_sink(ring)
    traces = assembler.collect()
    stitching = assembler.summary(traces)
    stitching["spans_dropped"] = sum(ring.dropped for ring in rings.values())

    root_names: Dict[str, int] = {}
    for trace in traces:
        for root in trace.roots:
            root_names[root.name] = root_names.get(root.name, 0) + 1

    profiler = CriticalPathProfiler()
    max_rel_error = 0.0
    for trace in traces:
        trace_profile = profiler.add(trace)
        if trace_profile is not None and trace_profile.duration > 0:
            max_rel_error = max(
                max_rel_error,
                trace_profile.attribution_error / trace_profile.duration,
            )

    report = {
        "workload": workload,
        "stitching": stitching,
        "roots": root_names,
        "phases": stats.stats(),
        "profile": profiler.aggregate(top=5),
        "max_relative_attribution_error": max_rel_error,
        "slo": slo.report(),
        "latency_compliance": latency.compliance(),
        "alert_evaluations": engine.evaluations,
        "security_rejections": stats.error_census("check."),
    }
    peer_server.close()
    testbed.close_stores()
    return report


def criteria(report: dict) -> List[Criterion]:
    """The gates: every span stitched into its causing trace, and the
    critical-path attribution closing on every trace's duration."""
    stitching = report["stitching"]
    rel_error = report["max_relative_attribution_error"]
    return [
        gate(
            "stitch_rate", stitching["stitch_rate"], "==", 1.0,
            f"cross-process stitch rate {stitching['stitch_rate']} != 1.0 "
            f"({stitching['orphan_spans']} orphan spans)",
        ),
        gate(
            "attribution_error", rel_error, "<=", ATTRIBUTION_TOLERANCE,
            f"category attribution missed trace duration by {rel_error:.4%} "
            f"(tolerance {ATTRIBUTION_TOLERANCE:.0%})",
        ),
    ]


TARGET = BenchTarget("profile", "BENCH_profile.json", run_profile, criteria)
