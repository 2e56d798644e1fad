"""Benchmarked security pipeline: baseline vs verification fast path.

Both sections run the §4 flow on the simulated testbed and report
simulated time (WAN transfer plus the client's modelled compute: counted
operations priced by the DESIGN §2 table and scaled by the Table-1 CPU
factor); per-primitive wall-clock costs live in ``perf/``.

* **pipeline** — a document published on the Amsterdam primary,
  accessed repeatedly from Paris with binding caching off (every access
  re-fetches and re-checks the integrity certificate — the paper's
  worst case). The *baseline* run disables every fast-path layer (no
  :class:`VerificationCache`, envelope intern pool cleared before each
  access) so it measures the pre-fast-path code path; the *fastpath*
  run shares one cache across accesses, so access 0 pays in full and
  the rest replay memoized verdicts.
* **concurrency** — the same batch of accesses through the sequential
  ``handle`` loop and through the concurrent access pipeline, each
  traced, so the report also says how much of ``proxy.handle`` time
  each mode spends blocked in ``rpc.call``.

The gates: a warm certificate verification is at least
:data:`WARM_SPEEDUP_TARGET` times faster than a cold one, the fast-path
run is never slower than the baseline overall, the pipeline delivers at
least :data:`CONCURRENCY_TARGET` times the sequential throughput, and
it moves ``rpc.call`` time off the serving path. That no access of
either mode fails or serves bytes other than the owner's is a tier-1
assertion on the same run (``tests/harness/test_security_bench.py``).

Simulated-WAN cost model note: ``SimHost.compute`` charges the
operations a check *counted* (RSA verifies, bytes hashed and encoded),
so a cache hit — which skips them, exactly as it does for real —
charges only the region's bookkeeping, with no special case. A fixed
seed gives the same report on any machine.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.crypto.keys import KeyPair
from repro.crypto.signing import SignedEnvelope
from repro.crypto.verifycache import VerificationCache
from repro.errors import ReproError
from repro.globedoc.element import PageElement
from repro.globedoc.owner import DocumentOwner
from repro.harness.experiment import Testbed
from repro.harness.kernel import BenchTarget, Criterion, gate
from repro.obs import RingBufferSink, Tracer
from repro.proxy.pipeline import PipelineConfig
from repro.sim.random import make_rng
from repro.util.sizes import KB
from repro.util.stats import summarize
from repro.workloads.generator import make_content

__all__ = [
    "run_security_bench",
    "run_concurrency_bench",
    "criteria",
    "WARM_SPEEDUP_TARGET",
    "CONCURRENCY_TARGET",
    "TARGET",
]

#: Acceptance threshold: warm certificate verification must beat cold
#: by at least this factor.
WARM_SPEEDUP_TARGET = 5.0

#: Acceptance threshold: the concurrent pipeline must deliver at least
#: this many times the sequential path's accesses/second.
CONCURRENCY_TARGET = 2.0

#: Paper-era client host for the pipeline scenario (Paris).
PIPELINE_CLIENT = "canardo.inria.fr"

#: Accesses per pipeline run (baseline and fast path alike).
PIPELINE_ACCESSES = 25


# ----------------------------------------------------------------------
# Pipeline benchmark (simulated testbed, §4 flow)
# ----------------------------------------------------------------------


def _publish_bench_object(testbed: Testbed, seed: int = 0):
    owner = DocumentOwner("vu.nl/bench", keys=KeyPair.generate(), clock=testbed.clock)
    owner.put_element(PageElement("image.png", make_content(10 * KB, make_rng(seed))))
    return testbed.publish(owner, validity=7 * 24 * 3600.0)


def _run_accesses(
    testbed: Testbed,
    url: str,
    verification_cache: Optional[VerificationCache],
    clear_intern_per_access: bool,
) -> Tuple[List[Dict[str, float]], Dict[str, float]]:
    """One client stack, :data:`PIPELINE_ACCESSES` sequential fetches.

    Returns the per-access timing rows (derived from the access's spans)
    and the run's fast-path counters, read off the verification cache,
    which is this run's own.
    """
    sink = RingBufferSink()
    stack = testbed.client_stack(
        PIPELINE_CLIENT,
        cache_binding=False,
        verification_cache=verification_cache,
        tracer=Tracer(clock=testbed.clock, sinks=(sink,), origin=PIPELINE_CLIENT),
    )
    rows: List[Dict[str, float]] = []
    for _ in range(PIPELINE_ACCESSES):
        if clear_intern_per_access:
            SignedEnvelope.clear_intern_pool()
        response, metrics = testbed.measured_access(stack.proxy, url, sink)
        if not response.ok:
            raise ReproError(
                f"bench access failed: {response.status} {response.security_failure}"
            )
        rows.append(
            {
                "total_ms": metrics.total * 1e3,
                "security_ms": metrics.security_time * 1e3,
                "verify_certificate_ms": metrics.phase_time("verify_certificate") * 1e3,
                "verify_public_key_ms": metrics.phase_time("verify_public_key") * 1e3,
            }
        )
    hits, misses = (
        verification_cache.stats.snapshot() if verification_cache is not None else (0, 0)
    )
    return rows, {"verify_hits": float(hits), "verify_misses": float(misses)}


def _summarize_run(
    rows: List[Dict[str, float]], counters: Dict[str, float]
) -> Dict[str, float]:
    def mean(field: str) -> float:
        return summarize([row[field] for row in rows]).mean

    return {
        "accesses": len(rows),
        "total_ms_mean": mean("total_ms"),
        "security_ms_mean": mean("security_ms"),
        "verify_certificate_ms_mean": mean("verify_certificate_ms"),
        "verify_public_key_ms_mean": mean("verify_public_key_ms"),
        **counters,
    }


def run_pipeline_bench(seed: int = 0) -> Dict[str, object]:
    """Baseline vs fast-path accesses on the simulated testbed.

    Times reported are simulated milliseconds: WAN transfer plus the
    client's modelled compute (scaled by the Table-1 CPU factor),
    exactly what the figure experiments measure.
    """
    # Baseline: the pre-fast-path code path. No verification cache, and
    # the envelope intern pool is cleared before every access so each
    # access re-parses and re-encodes from scratch.
    testbed = Testbed()
    obj = _publish_bench_object(testbed, seed=seed)
    url = obj.url("image.png")
    SignedEnvelope.clear_intern_pool()
    baseline_rows, baseline_counters = _run_accesses(
        testbed, url, verification_cache=None, clear_intern_per_access=True
    )

    # Fast path: one shared VerificationCache; the intern pool persists,
    # so access 0 is the cold miss and the rest run warm.
    testbed = Testbed()
    obj = _publish_bench_object(testbed, seed=seed)
    url = obj.url("image.png")
    SignedEnvelope.clear_intern_pool()
    fastpath_rows, fastpath_counters = _run_accesses(
        testbed,
        url,
        verification_cache=VerificationCache(),
        clear_intern_per_access=False,
    )
    SignedEnvelope.clear_intern_pool()

    baseline = _summarize_run(baseline_rows, baseline_counters)
    fastpath = _summarize_run(fastpath_rows, fastpath_counters)

    # Warm comparison: every baseline access pays the cold cost; the
    # fast path's warm accesses are rows 1..N.
    cold_verify_ms = baseline["verify_certificate_ms_mean"]
    warm = [row["verify_certificate_ms"] for row in fastpath_rows[1:]]
    warm_verify_ms = summarize(warm).mean
    return {
        "client": PIPELINE_CLIENT,
        "element_bytes": 10 * KB,
        "accesses": PIPELINE_ACCESSES,
        "baseline": baseline,
        "fastpath": fastpath,
        "warm": {
            "cold_verify_certificate_ms": cold_verify_ms,
            "warm_verify_certificate_ms": warm_verify_ms,
            "speedup": cold_verify_ms / warm_verify_ms if warm_verify_ms else float("inf"),
        },
    }


# ----------------------------------------------------------------------
# Concurrency benchmark (pipelined vs sequential batch, simulated time)
# ----------------------------------------------------------------------

#: Batch shape for the concurrency section: a site of this many
#: documents, each with this many page elements of this size, plus
#: duplicate requests for the hottest element of every document.
CONCURRENCY_OBJECTS = 3
CONCURRENCY_ELEMENTS = 6
CONCURRENCY_ELEMENT_BYTES = 8 * KB
CONCURRENCY_HOT_DUPLICATES = 3

#: Batches per mode; sessions are dropped between them.
CONCURRENCY_WAVES = 4


def _publish_concurrency_site(testbed: Testbed, seed: int):
    """*CONCURRENCY_OBJECTS* documents; returns (urls, expected bytes)."""
    urls: List[str] = []
    expected: List[bytes] = []
    hot: List[tuple] = []
    for i in range(CONCURRENCY_OBJECTS):
        owner = DocumentOwner(
            f"vu.nl/conc{i}", keys=KeyPair.generate(), clock=testbed.clock
        )
        contents = {}
        for j in range(CONCURRENCY_ELEMENTS):
            content = make_content(
                CONCURRENCY_ELEMENT_BYTES, make_rng(seed * 1009 + i * 101 + j)
            )
            contents[f"e{j}.html"] = content
            owner.put_element(PageElement(f"e{j}.html", content))
        published = testbed.publish(owner, validity=7 * 24 * 3600.0)
        for name, content in contents.items():
            urls.append(published.url(name))
            expected.append(content)
        hot.append((published.url("e0.html"), contents["e0.html"]))
    # The hot tail: the same first element of every document requested
    # again in the same batch — the coalescing path's workload.
    for url, content in hot[:CONCURRENCY_HOT_DUPLICATES]:
        urls.append(url)
        expected.append(content)
    return urls, expected


def _in_handle_call_share(spans) -> float:
    """How much ``rpc.call`` time sits *inside* ``proxy.handle``.

    Spans carry parent links, so each call can be attributed: a call
    whose ancestor chain reaches ``proxy.handle`` blocked an access being
    served; one under ``pipeline.schedule``'s prefetch ran off the
    serving path. The share is in-handle call time over total handle
    time — the fraction of request handling spent waiting on the wire,
    which is exactly what the concurrent pipeline exists to shrink.
    """
    by_id = {span.span_id: span for span in spans}
    handle_total = sum(span.duration for span in spans if span.name == "proxy.handle")
    in_handle = 0.0
    for span in spans:
        if span.name != "rpc.call":
            continue
        ancestor = by_id.get(span.parent_id)
        while ancestor is not None and ancestor.name != "proxy.handle":
            ancestor = by_id.get(ancestor.parent_id)
        if ancestor is not None:
            in_handle += span.duration
    return in_handle / handle_total if handle_total else 0.0


def _run_concurrency_mode(pipelined: bool, seed: int) -> Dict[str, object]:
    """One mode, :data:`CONCURRENCY_WAVES` batches; sessions dropped
    between waves so every wave pays establishment (the steady-state
    browse pattern of a proxy whose sessions age out)."""
    testbed = Testbed()
    urls, expected = _publish_concurrency_site(testbed, seed)
    ring = RingBufferSink()
    stack = testbed.client_stack(
        PIPELINE_CLIENT,
        verification_cache=VerificationCache(),
        pipeline=PipelineConfig() if pipelined else None,
        tracer=Tracer(clock=testbed.clock, sinks=(ring,), origin=PIPELINE_CLIENT),
    )
    accesses = 0
    unverified = 0
    failures = 0
    start = testbed.clock.now()
    for _ in range(CONCURRENCY_WAVES):
        responses = stack.proxy.handle_many(urls)
        for response, want in zip(responses, expected):
            accesses += 1
            if not response.ok:
                failures += 1
            elif response.content != want:
                # A 200 with wrong bytes = unverified data delivered.
                unverified += 1
        stack.proxy.drop_all_sessions()
    elapsed = testbed.clock.now() - start
    result: Dict[str, object] = {
        "pipelined": pipelined,
        "waves": CONCURRENCY_WAVES,
        "accesses": accesses,
        "elapsed_s": elapsed,
        "accesses_per_s": accesses / elapsed if elapsed else float("inf"),
        "rpc_call_share": _in_handle_call_share(ring.spans),
        "failures": failures,
        "unverified_responses": unverified,
    }
    if pipelined and stack.scheduler is not None:
        counters = stack.scheduler.counters
        result["counters"] = {
            "prefetched": counters.prefetched,
            "prefetch_hits": counters.prefetch_hits,
            "prefetch_misses": counters.prefetch_misses,
            "coalesced_calls": counters.coalesced_calls,
            "coalesced_responses": counters.coalesced_responses,
            "waves": counters.waves,
        }
        requests = accesses
        result["coalesce_ratio"] = (
            (counters.coalesced_responses + counters.coalesced_calls) / requests
            if requests
            else 0.0
        )
    return result


def run_concurrency_bench(seed: int = 0) -> Dict[str, object]:
    """Sequential loop vs concurrent pipeline over the same batch.

    Both modes run the identical stack configuration (shared
    :class:`VerificationCache`, default content cache, one tracer, no
    retry layer) on identical content; the only variable is the
    :class:`~repro.proxy.pipeline.AccessScheduler`. Times are simulated
    seconds, so the comparison is deterministic: the pipeline wins by
    overlapping WAN round trips (max-of-parallel), not by CPU luck.
    """
    sequential = _run_concurrency_mode(pipelined=False, seed=seed)
    pipelined = _run_concurrency_mode(pipelined=True, seed=seed)
    seq_rate = sequential["accesses_per_s"]
    pipe_rate = pipelined["accesses_per_s"]
    return {
        "objects": CONCURRENCY_OBJECTS,
        "elements_per_object": CONCURRENCY_ELEMENTS,
        "element_bytes": CONCURRENCY_ELEMENT_BYTES,
        "hot_duplicates": CONCURRENCY_HOT_DUPLICATES,
        "client": PIPELINE_CLIENT,
        "sequential": sequential,
        "pipelined": pipelined,
        "throughput_multiple": pipe_rate / seq_rate if seq_rate else float("inf"),
        "unverified_responses": (
            sequential["unverified_responses"] + pipelined["unverified_responses"]
        ),
        "failures": sequential["failures"] + pipelined["failures"],
    }


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def criteria(report: Dict[str, object]) -> List[Criterion]:
    """The pass/fail gates over one bench run's results.

    Pure so the gate logic is unit-testable without running the bench:
    warm certificate verification must beat cold by
    :data:`WARM_SPEEDUP_TARGET`, the fast-path run must not be slower
    than the baseline overall, and the concurrent pipeline must deliver
    at least :data:`CONCURRENCY_TARGET` times the sequential throughput
    with a smaller in-handle ``rpc.call`` share.
    """
    pipeline = report["pipeline"]
    concurrency = report["concurrency"]
    warm_speedup = pipeline["warm"]["speedup"]
    multiple = concurrency["throughput_multiple"]
    sequential_share = concurrency["sequential"]["rpc_call_share"]
    pipelined_share = concurrency["pipelined"]["rpc_call_share"]
    return [
        gate(
            "warm_speedup", warm_speedup, ">=", WARM_SPEEDUP_TARGET,
            f"warm verification speedup {warm_speedup:.1f}x "
            f"below target {WARM_SPEEDUP_TARGET:.0f}x",
        ),
        gate(
            "fastpath_not_slower",
            pipeline["fastpath"]["total_ms_mean"], "<=",
            pipeline["baseline"]["total_ms_mean"],
            "fast-path run slower than baseline",
        ),
        gate(
            "concurrency_multiple", multiple, ">=", CONCURRENCY_TARGET,
            f"pipeline throughput multiple {multiple:.2f}x below target "
            f"{CONCURRENCY_TARGET:.1f}x",
        ),
        gate(
            "pipelined_call_share", pipelined_share, "<", sequential_share,
            "pipelined rpc.call share of proxy.handle did not shrink: "
            f"{pipelined_share:.3f} vs sequential {sequential_share:.3f}",
        ),
    ]


def run_security_bench(seed: int = 0) -> Dict[str, object]:
    """The full report: pipeline + concurrency."""
    return {
        "pipeline": run_pipeline_bench(seed=seed),
        "concurrency": run_concurrency_bench(seed=seed),
    }


TARGET = BenchTarget(
    "bench-security",
    "BENCH_security_pipeline.json",
    run_security_bench,
    criteria,
)
