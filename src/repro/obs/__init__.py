"""Observability: tracing + instrumentation for the access pipeline.

``repro.obs`` gives every layer of the client/server stack a shared,
near-zero-cost way to report *where an access spends its time* and
*which security check rejected a response*:

* :class:`~repro.obs.span.Tracer` / :class:`~repro.obs.span.Span` —
  nested, attributed, clock-charged timing records;
* :data:`~repro.obs.span.NOOP_TRACER` — the disabled default every
  instrumented component falls back to;
* sinks (:mod:`repro.obs.sinks`) — the ring buffer and the
  aggregating :class:`~repro.obs.sinks.SpanStats`;
* traces (:mod:`repro.obs.trace`) — the
  :class:`~repro.obs.trace.TraceAssembler` stitching per-process span
  streams into cross-process causal trees by propagated trace context;
* profiles (:mod:`repro.obs.profile`) — the
  :class:`~repro.obs.profile.CriticalPathProfiler` attributing each
  trace's wall time to cost categories along its critical path.

See ``python -m repro.harness profile`` for the end-to-end profile built
on the spans (per-span table, rejection census and cross-process
critical-path attribution), and DESIGN.md §4d/§4j for the span taxonomy
and the causal-tracing design.
"""

from repro.obs.span import NOOP_TRACER, NoopSpan, NoopTracer, Span, Tracer
from repro.obs.sinks import RingBufferSink, SpanSink, SpanStats
from repro.obs.trace import AssembledTrace, TraceAssembler
from repro.obs.profile import (
    DEFAULT_CATEGORIES,
    CriticalPathProfiler,
    Segment,
    TraceProfile,
    categorize,
)


class MetricsRegistry:
    """An empty placeholder: the stack keeps no metrics store.

    Timings are spans (DESIGN §4d). ``perf/`` still constructs one and
    passes it as ``metrics=`` to seven constructors that accept and
    ignore it, until ROADMAP 1(a) rewires ``perf/`` through the
    composition root.
    """

__all__ = [
    "Span",
    "Tracer",
    "NoopTracer",
    "NoopSpan",
    "NOOP_TRACER",
    "SpanSink",
    "RingBufferSink",
    "SpanStats",
    "MetricsRegistry",
    "AssembledTrace",
    "TraceAssembler",
    "CriticalPathProfiler",
    "TraceProfile",
    "Segment",
    "categorize",
    "DEFAULT_CATEGORIES",
]
