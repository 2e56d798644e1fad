"""Round execution and end-to-end aggregation.

One *round* = build a fresh world, start the workload's session, run
its warm-up (untimed), serve the tamper probe, then drive the fixed
operation list closed-loop from this one thread, timing each operation
with ``perf_counter_ns`` and checking its bytes after the clock stops.
A run is a fixed number of rounds per workload (different workloads
interleaved): that many repetitions of every operation, each metric
read off the fastest (see :func:`end_to_end`).
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from time import perf_counter, perf_counter_ns, process_time_ns
from typing import Callable, Dict, List, Optional, Sequence

from perf.keypool import KeyPool
from perf.spans import SpanRecorder, SpanTable
from perf.workloads import Session, Workload, rounds_in
from perf.world import World, trace_classes

__all__ = [
    "RoundResult",
    "run_round",
    "measure",
    "end_to_end",
    "percentile",
    "WORK_ROOT",
]

#: Scratch space for durable worlds: inside the checkout, git-ignored.
WORK_ROOT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), ".bench_work")


@dataclass
class RoundResult:
    #: World build only: services, publish, server start, client state.
    setup_s: float
    #: The workload's untimed warm-up operations.
    warmup_s: float
    probe_rejected: bool
    finish_ok: bool
    kinds: List[str] = field(default_factory=list)
    durations_ns: List[int] = field(default_factory=list)
    payload_bytes: int = 0
    failed: int = 0
    #: This process's CPU around each op; the server process's over the loop.
    cpu_ns: List[int] = field(default_factory=list)
    server_cpu_s: float = 0.0
    #: Peak resident set of this round: this process plus the TCP child.
    peak_rss_kib: int = 0
    counters: Dict[str, float] = field(default_factory=dict)
    rpc_requests: int = 0
    rpc_bytes: int = 0
    #: Traced rounds only: the server's handler timings (from the TCP
    #: child) and the span table of exactly the timed operations.
    handlers: Optional[dict] = None
    table: Optional[SpanTable] = None

    @property
    def attempted(self) -> int:
        return len(self.durations_ns)

    @property
    def busy_s(self) -> float:
        return sum(self.durations_ns) / 1e9

    @property
    def cpu_s(self) -> float:
        return sum(self.cpu_ns) / 1e9 + self.server_cpu_s

    @property
    def ops_per_s(self) -> float:
        return self.attempted / self.busy_s

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.probe_rejected and self.finish_ok

    def durations_ms(self, kind: Optional[str] = None) -> List[float]:
        return [
            d / 1e6
            for d, k in zip(self.durations_ns, self.kinds)
            if kind is None or k == kind
        ]


def _reset_peak_rss() -> None:
    """Start a fresh peak-RSS reading for this process (Linux: writing 5
    to ``clear_refs`` resets the high-water mark ``ru_maxrss`` reports).
    Elsewhere the reading stays the process-wide peak so far."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


def run_round(
    workload: Workload,
    pool: KeyPool,
    seed: int,
    quick: bool = False,
    spans: Optional[SpanRecorder] = None,
    start: Optional[Callable] = None,
    tracer=None,
    metrics=None,
) -> RoundResult:
    """Run one round of *workload*; with *spans*, every op gets a root
    span and the world/stack seams are wrapped. *start* overrides the
    workload's session factory (the sequential twin of ``tcp_page``);
    *tracer*/*metrics* switch on the program's own obs plane."""
    if start is not None:
        workload = replace(workload, start=start)
    gc.collect()
    _reset_peak_rss()
    data_dir = None
    if workload.durable:
        os.makedirs(WORK_ROOT, exist_ok=True)
        data_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT)
    began = perf_counter()
    world = World(
        pool, workload.catalogue, seed, tcp=workload.tcp, data_dir=data_dir,
        spans=spans, tracer=tracer, metrics=metrics,
    )
    try:
        session: Session = workload.session(world, seed, quick)
        built = perf_counter()
        warm_ok = all(op()[2]() for op in session.warmup)
        session.mark()
        result = RoundResult(
            setup_s=built - began,
            warmup_s=perf_counter() - built,
            probe_rejected=session.probe(),
            finish_ok=warm_ok,
        )
        stats = world.transport.stats
        stats.reset()
        gc.collect()
        if spans is not None:
            trace_classes(spans)
            world.reset_trace()
        server_cpu = world.server_cpu_s()
        for index, op in enumerate(session.ops):
            cpu = process_time_ns()
            started = perf_counter_ns()
            try:
                if spans is None:
                    kind, size, check = op()
                else:
                    with spans.operation(index):
                        kind, size, check = op()
            except Exception:  # a failed op is counted, never fatal
                kind, size, check = "failed", 0, lambda: False
            ended = perf_counter_ns()
            result.cpu_ns.append(process_time_ns() - cpu)
            result.kinds.append(kind)
            result.durations_ns.append(ended - started)
            if check():
                result.payload_bytes += size
            else:
                result.failed += 1
        if spans is not None:
            result.table = spans.table()
        result.server_cpu_s = world.server_cpu_s() - server_cpu
        result.rpc_requests = stats.requests
        result.rpc_bytes = stats.bytes_sent + stats.bytes_received
        result.counters = dict(session.counters())
        result.finish_ok = result.finish_ok and session.finish()
    finally:
        if spans is not None:
            spans.restore()
        report = world.close()
        if data_dir is not None:
            shutil.rmtree(data_dir, ignore_errors=True)
    result.peak_rss_kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + report["maxrss_kib"]
    )
    result.handlers = report["handlers"]
    return result


def measure(
    workloads: Sequence[Workload],
    pool: KeyPool,
    seed: int,
    seconds: float,
    quick: bool = False,
    progress: Callable[[str], None] = lambda line: None,
) -> Dict[str, List[RoundResult]]:
    """Untraced rounds, workloads interleaved: ``rounds_in(seconds)`` of
    each (quick: two), whatever the machine's speed — parent and change
    are measured over the same number of repetitions."""
    rounds: Dict[str, List[RoundResult]] = {w.name: [] for w in workloads}
    wanted = 2 if quick else rounds_in(seconds)
    for index in range(wanted):
        for workload in workloads:
            result = run_round(workload, pool, seed, quick=quick)
            rounds[workload.name].append(result)
            progress(
                f"{workload.name} round {index + 1}/{wanted}: "
                f"{result.attempted} ops in {result.busy_s:.2f}s, "
                f"setup {result.setup_s:.2f}s, failed {result.failed}"
            )
    return rounds


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of *values*."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without floats
    return ordered[int(rank) - 1]


def end_to_end(rounds: Sequence[RoundResult]) -> Dict[str, dict]:
    """The end-to-end metrics of one workload from its rounds.

    Every round of a run replays the *same* operation list on a fresh
    world, so a run holds ``len(rounds)`` repetitions of every operation
    — a number fixed by the arguments — and interference on a shared
    machine only ever slows a repetition down. One rule for every time:
    **the fastest repetition** (``timeit``'s min-of-repeats). Each
    operation's wall and CPU time are its fastest over the rounds, and
    the metrics are those of the round so assembled; set-up time and the
    server process's CPU exist once per round and take the fastest
    round. ``peak_rss_mb`` is the largest per-round peak. The plain
    per-round values are stored beside each value as raw data
    (``rounds``); nothing is computed from them.
    """
    ops = rounds[0].attempted
    durations = [min(r.durations_ns[i] for r in rounds) for i in range(ops)]
    cpu_s = sum(min(r.cpu_ns[i] for r in rounds) for i in range(ops)) / 1e9
    cpu_s += min(r.server_cpu_s for r in rounds)
    busy_s = sum(durations) / 1e9
    payload = max(r.payload_bytes for r in rounds)

    def entry(unit: str, value: float, per_round: List[float]) -> dict:
        return {"value": value, "unit": unit, "rounds": per_round}

    return {
        "setup_s": entry("s", min(r.setup_s for r in rounds), [r.setup_s for r in rounds]),
        "ops_per_s": entry("1/s", ops / busy_s, [r.ops_per_s for r in rounds]),
        "mb_per_s": entry(
            "MB/s", payload / 1e6 / busy_s, [r.payload_bytes / 1e6 / r.busy_s for r in rounds]
        ),
        "cpu_ms_per_op": entry(
            "ms", cpu_s * 1e3 / ops, [r.cpu_s * 1e3 / r.attempted for r in rounds]
        ),
        "op_ms_p50": entry(
            "ms",
            percentile(durations, 50) / 1e6,
            [percentile(r.durations_ms(), 50) for r in rounds],
        ),
        "peak_rss_mb": entry(
            "MB",
            max(r.peak_rss_kib for r in rounds) / 1024.0,
            [r.peak_rss_kib / 1024.0 for r in rounds],
        ),
    }
