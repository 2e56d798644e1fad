"""The ``--trace`` pass: per-layer metrics of one workload.

For one workload this runs, on the same seeded operations: one untraced
round, one traced round (spans from ``perf/spans.py`` around the seams
``perf/world.py`` wires) and the two comparison
rounds that only make sense on one workload (``tcp_page`` loaded
sequentially; ``cold_bind`` with the program's own tracer and metrics
registry switched on). Every per-layer metric is reported on every
workload; a metric whose layer the workload never enters reads 0. The
micro-ladder's rungs do not depend on the workload: the caller runs it
once per invocation and hands its values in.

Counts (``*_per_op`` call counts, hit ratios, appends, bytes) repeat
exactly for a given seed; times do not.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from repro.obs import MetricsRegistry, RingBufferSink, Tracer

from perf.keypool import KeyPool
from perf.runner import RoundResult, percentile, run_round
from perf.spans import END, NAME, PARENT, RESULT, START, SpanRecorder, SpanTable
from perf.workloads import Workload, start_tcp_page_sequential
from perf.world import handler_stats

__all__ = ["trace_workload"]

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _growth(values: List[float]) -> float:
    """p50 of the last quarter ÷ p50 of the first quarter (0 if too few)."""
    quarter = len(values) // 4
    if quarter == 0:
        return 0.0
    return percentile(values[-quarter:], 50) / percentile(values[:quarter], 50)


def _drift(handle_ns: List[int]) -> float:
    """Mean handler time in the last decile of calls ÷ the first decile."""
    decile = len(handle_ns) // 10
    if decile == 0:
        return 0.0
    return _mean(handle_ns[-decile:]) / _mean(handle_ns[:decile])


def _span_metrics(
    workload: Workload, traced: RoundResult, table: SpanTable
) -> Dict[str, float]:
    """Everything read off the traced round's spans and counters."""
    ops = traced.attempted
    counters = traced.counters
    handlers = traced.handlers or handler_stats(table)
    handle_ns = handlers["handle_ns"]
    roots = table.by_name.get("op", [])
    cache_verdicts = [r[RESULT] for r in table.by_name.get("crypto.verifycache.verify", ())]
    transport_ns = table.total_ns("net.transport.request")
    element_kib = workload.catalogue.size / 1024.0
    return {
        # crypto
        "crypto.rsa_verify_calls_per_op": table.count("crypto.rsa_verify") / ops,
        "crypto.verifycache_hit_ratio": _ratio(
            sum(1 for hit in cache_verdicts if hit), len(cache_verdicts)
        ),
        # net
        "net.rpc_client_self_us_per_call": table.mean_self_us("net.rpc.call"),
        "net.rpc_calls_per_op": traced.rpc_requests / ops,
        "net.bytes_per_op": traced.rpc_bytes / ops,
        # Socket, framing and thread wake-up: request time the server's
        # handlers do not account for, summed over (parallel) requests.
        "net.tcp_self_ms_per_op": (
            (transport_ns - sum(handle_ns)) / ops / 1e6 if workload.tcp else 0.0
        ),
        "net.call_many_self_ms_per_op": table.total_self_ns("net.rpc.call_many") / ops / 1e6,
        # naming / location
        "naming.resolve_self_us": table.mean_self_us("naming.resolve"),
        "location.lookup_self_us": table.mean_self_us("location.lookup"),
        # proxy
        "proxy.handle_self_us": table.mean_self_us("proxy.handle"),
        "proxy.bind_self_us": table.mean_self_us("proxy.bind"),
        "proxy.establish_self_us": table.mean_self_us("proxy.establish"),
        "proxy.fetch_self_us": table.mean_self_us("proxy.fetch"),
        "proxy.check_public_key_us": table.mean_us("proxy.check_public_key"),
        "proxy.check_certificate_us": table.mean_us("proxy.check_certificate"),
        "proxy.check_element_us_per_kib": _ratio(
            table.mean_us("proxy.check_element"), element_kib
        ),
        "proxy.check_revocation_us": table.mean_us("proxy.check_revocation"),
        "proxy.check_frontier_ms": table.mean_us("proxy.check_frontier") / 1e3,
        "proxy.contentcache_get_us": table.mean_us("proxy.contentcache.get"),
        "proxy.contentcache_put_us": table.mean_us("proxy.contentcache.put"),
        "proxy.contentcache_hit_ratio": _ratio(
            counters.get("contentcache_hits", 0), counters.get("contentcache_lookups", 0)
        ),
        "proxy.contentcache_evictions_per_op": counters.get("contentcache_evictions", 0) / ops,
        "proxy.pipeline_self_ms_per_op": table.total_self_ns("proxy.pipeline.run") / ops / 1e6,
        "proxy.pipeline_prefetch_hit_ratio": _ratio(
            counters.get("prefetch_hits", 0), counters.get("prefetch_lookups", 0)
        ),
        # server
        "server.handle_us_per_call": _mean(handle_ns) / 1e3,
        "server.get_element_us": _ratio(
            handlers["get_element_ns"] / 1e3, handlers["get_element_calls"]
        ),
        "server.handle_drift_ratio": _drift(handle_ns),
        "server.cpu_ms_per_op": traced.server_cpu_s * 1e3 / ops,
        # storage
        "storage.appends_per_write": _ratio(
            counters.get("appends", 0), counters.get("writes", 0)
        ),
        "storage.journal_bytes_per_user_byte": _ratio(
            counters.get("journal_bytes", 0), counters.get("user_bytes", 0)
        ),
        # versioning
        "versioning.delta_build_us": table.mean_us("versioning.delta_build"),
        "versioning.store_put_delta_us": table.mean_us("versioning.store_put_delta"),
        "versioning.store_fetch_us": table.mean_us("versioning.store_fetch"),
        # revocation
        "revocation.check_us": table.mean_us("revocation.check"),
        "revocation.refreshes_per_1k_ops": counters.get("revocation_refreshes", 0) * 1e3 / ops,
        # how much of an op no wrapped seam accounts for
        "trace.root_self_ratio": _ratio(
            sum(table.self_ns(r) for r in roots), sum(r[END] - r[START] for r in roots)
        ),
    }


def trace_workload(
    workload: Workload, pool: KeyPool, seed: int, ladder: Dict[str, float],
    quick: bool = False,
) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Per-layer metrics of *workload* (*ladder* = this invocation's
    ``run_ladder`` values) plus a small detail record (attempted/failed
    ops of every round run here, for the result line)."""
    untraced = run_round(workload, pool, seed, quick=quick)
    spans = SpanRecorder()
    traced = run_round(workload, pool, seed, quick=quick, spans=spans)
    table = traced.table
    rounds = [untraced, traced]

    metrics = _span_metrics(workload, traced, table)
    metrics.update(ladder)
    metrics["bench.warmup_s"] = untraced.warmup_s

    # The tail is reported here, unbounded: on a shared sandbox p99 moves
    # by 40-50 % between identical runs (see perf/README.md, Bounds).
    metrics["tail.op_ms_p99"] = percentile(untraced.durations_ms(), 99)
    metrics["tail.op_ms_max"] = max(untraced.durations_ms())

    reads = untraced.durations_ms("read")
    writes = untraced.durations_ms("write")
    versioned = workload.name == "versioned_rw"
    metrics["versioning.write_ms_p50"] = percentile(writes, 50) if versioned else 0.0
    metrics["versioning.read_ms_p50"] = percentile(reads, 50) if versioned else 0.0
    metrics["versioning.read_growth_ratio"] = _growth(reads) if versioned else 0.0

    metrics["proxy.pipeline_speedup"] = 0.0
    if workload.name == "tcp_page":
        sequential = run_round(
            workload, pool, seed, quick=quick, start=start_tcp_page_sequential
        )
        rounds.append(sequential)
        metrics["proxy.pipeline_speedup"] = percentile(
            sequential.durations_ms(), 50
        ) / percentile(untraced.durations_ms(), 50)

    metrics["obs.bench_trace_overhead_ratio"] = untraced.ops_per_s / traced.ops_per_s
    metrics["obs.enabled_overhead_ratio"] = 0.0
    if workload.name == "cold_bind":
        # The program's own Tracer and MetricsRegistry threaded through
        # every layer ÷ the same round with both off.
        enabled = run_round(
            workload, pool, seed, quick=quick,
            tracer=Tracer(sinks=[RingBufferSink(capacity=4096)]), metrics=MetricsRegistry(),
        )
        rounds.append(enabled)
        metrics["obs.enabled_overhead_ratio"] = untraced.ops_per_s / enabled.ops_per_s

    first_op = table.per_op(0)
    detail = {
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "correct": all(r.correct for r in rounds),
        "spans": len(table.records),
        "first_op_spans": [
            {
                "name": r[NAME],
                "start_ns": r[START] - first_op[0][START],
                "end_ns": r[END] - first_op[0][START],
                "self_ns": table.self_ns(r),
                "parent": r[PARENT][NAME] if r[PARENT] is not None else None,
            }
            for r in first_op
        ],
    }
    return metrics, detail
