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
  fault clears and the window drains;
* **adversarial probes** — one per violated security property
  (authenticity, consistency, freshness), each expected to close the
  responsible ``check.*`` span with error status.

A separate **pipeline comparison** replays the document through the
sequential and the concurrent access pipeline (one shared tracer each)
and attributes every ``rpc.attempt`` to the ``proxy.handle`` it blocked.

``BENCH_profile.json`` records the stitching health (cross-process
stitch rate must be 1.0 — every server/gossip span reachable from its
client root), the per-span-name latency table, the critical-path
attribution per cost category (must sum to each trace's duration within
1%), critical-path p50/p99, the top-5 hottest span families, the SLO
verdicts with the alert timeline, the census of which check rejected
what, and the pipelined-vs-sequential in-handle ``rpc.attempt`` share.

Run with ``python -m repro.harness profile [--quick]``.
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
    MetricsRegistry,
    RingBufferSink,
    SloPlane,
    SpanStats,
    Tracer,
    TraceAssembler,
)
from repro.obs.alerts import STATE_FIRING, STATE_PENDING, STATE_RESOLVED
from repro.obs.slo import AvailabilityObjective, BurnWindow
from repro.proxy.contentcache import ContentCache
from repro.proxy.pipeline import PipelineConfig
from repro.sim.clock import SimClock
from repro.sim.random import derive_seed
from repro.versioning import DeltaDag, SignedDelta, WriterGrant
from repro.versioning.writer import DocumentWriter

__all__ = [
    "run_profile",
    "run_pipeline_comparison",
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

#: Every trace root must be one of these — a client access, a writer
#: publish, an anti-entropy round, or a revocation-feed poll. Any other
#: root means a server-side span failed to join its causing trace.
ALLOWED_ROOTS = frozenset(
    {"proxy.handle", "session.publish", "gossip.run", "revocation.refresh"}
)

#: Span families the mixed workload must produce somewhere in the fleet
#: — one per instrumented pipeline layer, plus the server-side families
#: that only a stitched trace can attribute. A missing name means an
#: instrumentation point was unplugged.
EXPECTED_SPANS = (
    "proxy.handle",
    "session.establish",
    "session.fetch",
    "bind.resolve",
    "bind.locate",
    "check.public_key",
    "check.certificate",
    "check.consistency",
    "check.element_hash",
    "check.freshness",
    "cache.get",
    "cache.put",
    "rpc.call",
    "server.handle",
    "gossip.run",
    "versioning.put_delta",
    "storage.journal",
    "revocation.refresh",
)

#: Spans only the concurrent pipeline produces.
PIPELINE_SPANS = ("pipeline.schedule", "pipeline.prefetch", "pipeline.batch_verify")

#: Adversarial probes: every violated property must be rejected by its
#: own check's span (name → expected error type).
EXPECTED_REJECTIONS = {
    "check.element_hash": "AuthenticityError",
    "check.consistency": "ConsistencyError",
    "check.freshness": "FreshnessError",
}

#: Cost categories the critical-path aggregate must cover.
EXPECTED_CATEGORIES = ("cache", "crypto", "merge", "proxy", "rpc", "storage")

#: Per-trace attribution must close to this relative tolerance (the
#: boundary sweep is exact; this absorbs float rounding only).
ATTRIBUTION_TOLERANCE = 0.01

#: Latency SLO: 99% of proxy accesses complete within 250 ms (a
#: DEFAULT_LATENCY_BUCKETS bound, as the objective requires).
LATENCY_TARGET = 0.99
LATENCY_THRESHOLD_S = 0.25

SESSION_DROP_EVERY = 6

#: The simulated processes, one tracer each.
PROCESSES = (
    "server-ginger",
    "server-inria",
    "proxy-sporty",
    "proxy-inria",
    "proxy-cornell",
    "writer-cornell",
)


def run_profile(quick: bool = False, seed: int = 0) -> dict:
    """Drive the mixed workload, return the JSON-ready report."""
    scratch = tempfile.mkdtemp(prefix="repro-profile-")
    try:
        return _run(quick, seed, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(quick: bool, seed: int, scratch: str) -> dict:
    reads = 36 if quick else 144
    write_rounds = 3 if quick else 8
    refreshes = 3 if quick else 8
    breach_requests = 24 if quick else 48
    recovery_requests = 6 if quick else 12

    clock = SimClock()
    clock.advance(100.0)
    metrics = MetricsRegistry(clock=clock)
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
        metrics=metrics,
        data_dir=scratch,
        storage_sync=False,
    )
    peer_server = testbed.start_server(
        PEER_HOST,
        tracer=tracers["server-inria"],
        metrics=metrics,
    )

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
    engine = AlertEngine(metrics, clock, evaluation_cost=0.0005)
    slo = SloPlane(metrics, engine)
    latency = slo.add(
        LatencyObjective(
            "access_latency",
            metric="proxy_access_seconds",
            threshold_s=LATENCY_THRESHOLD_S,
            target=LATENCY_TARGET,
            description=f"{LATENCY_TARGET:.0%} of accesses within "
            f"{LATENCY_THRESHOLD_S * 1e3:.0f} ms",
        ),
        fast=BurnWindow(window_seconds=60.0, threshold=10.0, severity="critical"),
        slow=BurnWindow(window_seconds=300.0, threshold=2.0, severity="warning"),
    )
    slo.add(
        AvailabilityObjective(
            "access_availability",
            metric="proxy_requests_total",
            good_labels={"outcome": "ok"},
            target=0.75,
            description="three quarters of accesses succeed even through faults",
        ),
        fast=BurnWindow(window_seconds=60.0, threshold=3.0, severity="critical"),
        slow=None,
    )

    # Recording starts here: setup spans (publish, grants) stay untraced
    # so every recorded root belongs to the workload.
    for origin, tracer in tracers.items():
        tracer.add_sink(rings[origin])
        tracer.add_sink(stats)
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
    for i in range(reads):
        if i % SESSION_DROP_EVERY == 0:
            read_stack.proxy.drop_all_sessions()
        if read_stack.proxy.handle(published.url(names[i % len(names)])).ok:
            read_ok += 1
        if i % 8 == 0:
            engine.evaluate()
    workload["reads"] = reads
    workload["read_ok"] = read_ok

    # -------------------------------------------------- writes + gossip
    writer_rpc = RpcClient(
        testbed.network.transport_for(WRITER_HOST),
        tracer=tracers["writer-cornell"],
        metrics=metrics,
    )
    home_endpoints = {
        "writer00": testbed.objectserver_endpoint,
        "writer01": Endpoint(PEER_HOST, "objectserver"),
    }
    ginger_rpc = RpcClient(
        testbed.network.transport_for(SERVICES_HOST),
        tracer=tracers["server-ginger"],
        metrics=metrics,
    )
    peer_rpc = RpcClient(
        testbed.network.transport_for(PEER_HOST),
        tracer=tracers["server-inria"],
        metrics=metrics,
    )
    views = {writer_id: DeltaDag() for writer_id in writers}
    writes = 0
    gossip_rounds = 0
    gossip_pulled = 0
    gossip_pushed = 0
    writer_tracer = tracers["writer-cornell"]
    for round_index in range(write_rounds):
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
    for _ in range(refreshes):
        read_stack.revocation.refresh()
        clock.advance(1.0)
    workload["revocation_refreshes"] = refreshes

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
    for i in range(breach_requests):
        if i % SESSION_DROP_EVERY == 0:
            breach_stack.proxy.drop_all_sessions()
        if breach_stack.proxy.handle(published.url(names[i % len(names)])).ok:
            breach_ok += 1
        if i % 4 == 3:
            engine.evaluate()
    workload["breach_requests"] = breach_requests
    workload["breach_ok"] = breach_ok

    # Fault clears; healthy traffic plus enough elapsed time for both
    # burn windows to drain their bad samples.
    recovery_ok = 0
    for i in range(recovery_requests):
        if read_stack.proxy.handle(published.url(names[i % len(names)])).ok:
            recovery_ok += 1
        clock.advance(10.0)
        engine.evaluate()
    for _ in range(30):
        clock.advance(12.0)
        engine.evaluate()
    workload["recovery_requests"] = recovery_requests
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
    bad_roots: List[str] = []
    for trace in traces:
        for root in trace.roots:
            root_names[root.name] = root_names.get(root.name, 0) + 1
            if root.name not in ALLOWED_ROOTS:
                bad_roots.append(f"{root.name} ({root.ref})")

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
        "bad_roots": bad_roots,
        "phases": stats.stats(),
        "profile": profiler.aggregate(top=5),
        "max_relative_attribution_error": max_rel_error,
        "slo": slo.report(),
        "latency_compliance": latency.compliance(metrics),
        "alert_evaluations": engine.evaluations,
        "security_rejections": stats.error_census("check."),
        "pipeline_comparison": run_pipeline_comparison(quick=quick, seed=seed),
    }
    peer_server.close()
    testbed.close_stores()
    return report


# ----------------------------------------------------------------------
# Pipeline comparison (sequential vs concurrent, one shared tracer each)
# ----------------------------------------------------------------------


def _attempt_share(ring: RingBufferSink) -> Dict[str, float]:
    """How much ``rpc.attempt`` time sits *inside* ``proxy.handle``.

    Spans carry parent links, so each attempt can be attributed: an
    attempt whose ancestor chain reaches ``proxy.handle`` blocked an
    access being served; one under ``pipeline.schedule``'s prefetch ran
    off the serving path. The *share* is in-handle attempt time over
    total handle time — the fraction of request handling spent waiting
    on the wire, which is exactly what the concurrent pipeline exists to
    shrink.
    """
    spans = ring.spans
    by_id = {span.span_id: span for span in spans}
    handle_total = 0.0
    attempt_total = 0.0
    attempt_in_handle = 0.0
    for span in spans:
        if span.name == "proxy.handle":
            handle_total += span.duration
        elif span.name == "rpc.attempt":
            attempt_total += span.duration
            parent = span.parent_id
            while parent is not None:
                ancestor = by_id.get(parent)
                if ancestor is None:
                    break
                if ancestor.name == "proxy.handle":
                    attempt_in_handle += span.duration
                    break
                parent = ancestor.parent_id
    return {
        "handle_total_s": handle_total,
        "rpc_attempt_total_s": attempt_total,
        "rpc_attempt_in_handle_s": attempt_in_handle,
        "rpc_attempt_share": (
            attempt_in_handle / handle_total if handle_total else 0.0
        ),
    }


def _run_pipeline_mode(pipelined: bool, waves: int, seed: int) -> Dict[str, object]:
    """One mode of the pipeline comparison: same document, same waves,
    fresh testbed/clock/tracer, retry layer enabled in both."""
    ring = RingBufferSink(capacity=8192)
    stats = SpanStats()
    clock = SimClock()
    tracer = Tracer(clock=clock, sinks=(ring, stats))
    testbed = Testbed(clock=clock, tracer=tracer)
    published = testbed.publish(
        testbed.document_owner("vu.nl/profile-pipe", ELEMENTS),
        validity=7 * 24 * 3600.0,
    )
    stack = testbed.client_stack(
        READ_HOST,
        verification_cache=VerificationCache(),
        retry_policy=RetryPolicy(
            max_attempts=3, base_delay=0.02, seed=derive_seed(seed, "pipe-retry")
        ),
        tracer=tracer,
        pipeline=PipelineConfig() if pipelined else None,
    )
    urls = [published.url(name) for name in ELEMENTS]
    ok = 0
    start = clock.now()
    for _ in range(waves):
        responses = stack.proxy.handle_many(urls)
        ok += sum(1 for response in responses if response.ok)
        stack.proxy.drop_all_sessions()
    elapsed = clock.now() - start
    phases = stats.stats()
    result: Dict[str, object] = {
        "pipelined": pipelined,
        "requests": waves * len(urls),
        "ok": ok,
        "elapsed_s": elapsed,
        "pipeline_spans": {
            name: phases[name]["count"] for name in PIPELINE_SPANS if name in phases
        },
    }
    result.update(_attempt_share(ring))
    return result


def run_pipeline_comparison(quick: bool = False, seed: int = 0) -> Dict[str, object]:
    """Sequential vs concurrent pipeline over the profiled document."""
    waves = 3 if quick else 6
    sequential = _run_pipeline_mode(pipelined=False, waves=waves, seed=seed)
    pipelined = _run_pipeline_mode(pipelined=True, waves=waves, seed=seed)
    return {
        "waves": waves,
        "requests_per_wave": len(ELEMENTS),
        "sequential": sequential,
        "pipelined": pipelined,
        "speedup": (
            sequential["elapsed_s"] / pipelined["elapsed_s"]
            if pipelined["elapsed_s"]
            else float("inf")
        ),
    }


# ----------------------------------------------------------------------
# Gates / rendering
# ----------------------------------------------------------------------


def _lifecycle_complete(timeline: List[dict], rule: str) -> bool:
    """True when *rule*'s events contain pending → firing → resolved in
    causal order."""
    wanted = [STATE_PENDING, STATE_FIRING, STATE_RESOLVED]
    position = 0
    for event in timeline:
        if event.get("rule") != rule:
            continue
        if event.get("state") == wanted[position]:
            position += 1
            if position == len(wanted):
                return True
    return False


def criteria(report: dict) -> List[Criterion]:
    """The CI gates: workload health, stitching, span coverage,
    critical-path attribution, the SLO lifecycle, the rejection census
    and the pipeline comparison."""
    workload = report["workload"]
    out: List[Criterion] = []
    for phase, ok_key in (("reads", "read_ok"), ("recovery_requests", "recovery_ok")):
        out.append(
            gate(
                f"{phase}_ok", workload[ok_key], "==", workload[phase],
                f"{phase} degraded: {workload[ok_key]}/{workload[phase]} ok",
            )
        )
    out += [
        gate(
            "converged", bool(workload["converged"]), "==", True,
            "servers did not converge after gossip",
        ),
        gate(
            "gossip_exchanged",
            workload["gossip_pulled"] + workload["gossip_pushed"], ">", 0,
            "gossip exchanged no deltas",
        ),
    ]

    stitching = report["stitching"]
    out.append(
        gate(
            "stitch_rate", stitching["stitch_rate"], "==", 1.0,
            f"cross-process stitch rate {stitching['stitch_rate']} != 1.0 "
            f"({stitching['orphan_spans']} orphan spans)",
        )
    )
    for key in ("orphan_spans", "skewed_spans", "spans_dropped", "duplicate_refs"):
        out.append(
            gate(key, stitching[key], "==", 0, f"{key} = {stitching[key]} (expected 0)")
        )
    out += [
        gate(
            "cross_process_spans", stitching["cross_process_spans"], ">", 0,
            "no spans were adopted across processes",
        ),
        gate(
            "cross_process_traces", stitching["cross_process_traces"], ">", 0,
            "no trace spanned more than one process",
        ),
        gate(
            "bad_roots", report["bad_roots"], "==", [],
            "server/gossip spans surfaced as trace roots instead of joining "
            f"their causing trace: {report['bad_roots'][:5]}",
        ),
    ]

    phases = report["phases"]
    for name in EXPECTED_SPANS:
        count = phases.get(name, {}).get("count", 0)
        out.append(gate(f"spans[{name}]", count, ">", 0, f"no {name!r} spans recorded"))

    profile = report["profile"]
    rel_error = report["max_relative_attribution_error"]
    out += [
        gate(
            "traces_profiled", profile["traces_profiled"], ">", 0,
            "no traces were profiled",
        ),
        gate(
            "rootless_traces", profile["rootless_traces"], "==", 0,
            f"{profile['rootless_traces']} traces had no unique root",
        ),
        gate(
            "attribution_error", rel_error, "<=", ATTRIBUTION_TOLERANCE,
            f"category attribution missed trace duration by {rel_error:.4%} "
            f"(tolerance {ATTRIBUTION_TOLERANCE:.0%})",
        ),
    ]
    for category in EXPECTED_CATEGORIES:
        out.append(
            gate(
                f"category[{category}]", category in profile["categories"], "==", True,
                f"no critical-path time attributed to {category!r}",
            )
        )
    hottest = len(profile["hottest"])
    out.append(
        gate("hottest", hottest, ">=", 5, f"fewer than 5 hot span families: {hottest}")
    )

    slo = report["slo"]
    out += [
        gate(
            "fast_burn_lifecycle",
            _lifecycle_complete(slo["alert_timeline"], "access_latency:fast_burn"),
            "==", True,
            "seeded SLO breach did not drive access_latency:fast_burn through "
            "pending → firing → resolved",
        ),
        gate(
            "latency_objective_reported",
            "access_latency" in {v["objective"] for v in slo["objectives"]}, "==", True,
            "latency objective missing from SLO verdicts",
        ),
    ]

    rejections = report["security_rejections"]
    for span_name, error_type in EXPECTED_REJECTIONS.items():
        out.append(
            gate(
                f"rejection[{span_name}]",
                error_type in rejections.get(span_name, {}), "==", True,
                f"expected {span_name!r} to reject with {error_type}, "
                f"got {rejections.get(span_name)}",
            )
        )

    sequential = report["pipeline_comparison"]["sequential"]
    pipelined = report["pipeline_comparison"]["pipelined"]
    for label, mode in (("sequential", sequential), ("pipelined", pipelined)):
        out.append(
            gate(
                f"pipeline_ok[{label}]", mode["ok"], "==", mode["requests"],
                f"pipeline-comparison workload degraded "
                f"({label}: {mode['ok']}/{mode['requests']} ok)",
            )
        )
    out += [
        gate(
            "pipelined_attempt_share",
            pipelined["rpc_attempt_share"], "<", sequential["rpc_attempt_share"],
            "pipelined rpc.attempt share of proxy.handle did not shrink: "
            f"{pipelined['rpc_attempt_share']:.3f} vs sequential "
            f"{sequential['rpc_attempt_share']:.3f}",
        ),
        gate(
            "pipelined_elapsed_s",
            pipelined["elapsed_s"], "<=", sequential["elapsed_s"],
            "pipelined workload slower than sequential: "
            f"{pipelined['elapsed_s']:.3f} s vs {sequential['elapsed_s']:.3f} s",
        ),
    ]
    for name in PIPELINE_SPANS:
        out.append(
            gate(
                f"pipelined_spans[{name}]",
                pipelined["pipeline_spans"].get(name, 0), ">", 0,
                f"no {name!r} spans recorded in pipelined mode",
            )
        )
    return out


TARGET = BenchTarget("profile", "BENCH_profile.json", run_profile, criteria)
