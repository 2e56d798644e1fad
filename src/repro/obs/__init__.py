"""Observability: tracing + instrumentation for the access pipeline.

``repro.obs`` gives every layer of the client/server stack a shared,
near-zero-cost way to report *where an access spends its time* and
*which security check rejected a response*:

* :class:`~repro.obs.span.Tracer` / :class:`~repro.obs.span.Span` —
  nested, attributed, clock-charged timing records;
* :data:`~repro.obs.span.NOOP_TRACER` — the disabled default every
  instrumented component falls back to;
* sinks (:mod:`repro.obs.sinks`) — ring buffer, JSONL export, and the
  aggregating :class:`~repro.obs.sinks.SpanStats`;
* alerts (:mod:`repro.obs.alerts`) — the rule engine
  (:class:`~repro.obs.alerts.AlertEngine`) evaluating threshold and
  rate-over-window rules on the scrape cadence, each over a reader of
  state a component already keeps;
* traces (:mod:`repro.obs.trace`) — the
  :class:`~repro.obs.trace.TraceAssembler` stitching per-process span
  streams into cross-process causal trees by propagated trace context;
* profiles (:mod:`repro.obs.profile`) — the
  :class:`~repro.obs.profile.CriticalPathProfiler` attributing each
  trace's wall time to cost categories along its critical path;
* SLOs (:mod:`repro.obs.slo`) — latency/availability objectives fed
  by the proxy's ``proxy.handle`` spans, with burn-rate rules feeding
  the alert engine.

See ``python -m repro.harness profile`` for the end-to-end profile built
on the spans (per-span table, rejection census, cross-process
critical-path attribution and SLO verdicts), ``python -m repro.harness
monitor`` for the standing alerts plane, and DESIGN.md §4d/§4f/§4j for
the span taxonomy, what each alert rule reads, and the causal-tracing
design.
"""

from repro.obs.span import NOOP_TRACER, NoopSpan, NoopTracer, Span, Tracer
from repro.obs.sinks import JsonlSink, RingBufferSink, SpanSink, SpanStats
from repro.obs.trace import AssembledTrace, TraceAssembler
from repro.obs.profile import (
    DEFAULT_CATEGORIES,
    CriticalPathProfiler,
    Segment,
    TraceProfile,
    categorize,
)
from repro.obs.slo import (
    AvailabilityObjective,
    BurnRateRule,
    BurnWindow,
    LatencyObjective,
    SloObjective,
    SloPlane,
)
from repro.obs.alerts import (
    STATE_FIRING,
    STATE_INACTIVE,
    STATE_PENDING,
    STATE_RESOLVED,
    AlertEngine,
    AlertEvent,
    AlertRule,
    RateRule,
    ThresholdRule,
)


class MetricsRegistry:
    """An empty placeholder: the stack keeps no metrics store.

    Alert rules read component state and SLO objectives count spans
    (DESIGN §4f). ``perf/`` still constructs one and passes it as
    ``metrics=`` to seven constructors that accept and ignore it, until
    ROADMAP 1(a) rewires ``perf/`` through the composition root.
    """

__all__ = [
    "Span",
    "Tracer",
    "NoopTracer",
    "NoopSpan",
    "NOOP_TRACER",
    "SpanSink",
    "RingBufferSink",
    "JsonlSink",
    "SpanStats",
    "MetricsRegistry",
    "AlertEngine",
    "AlertEvent",
    "AlertRule",
    "ThresholdRule",
    "RateRule",
    "STATE_INACTIVE",
    "STATE_PENDING",
    "STATE_FIRING",
    "STATE_RESOLVED",
    "AssembledTrace",
    "TraceAssembler",
    "CriticalPathProfiler",
    "TraceProfile",
    "Segment",
    "categorize",
    "DEFAULT_CATEGORIES",
    "SloObjective",
    "LatencyObjective",
    "AvailabilityObjective",
    "BurnRateRule",
    "BurnWindow",
    "SloPlane",
]
