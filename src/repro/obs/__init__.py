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
* metrics (:mod:`repro.obs.metrics`) — the process-wide labeled
  :class:`~repro.obs.metrics.MetricsRegistry` (counters, gauges,
  fixed-bucket histograms) holding the five series an alert rule or
  SLO reads, and its disabled twin
  :data:`~repro.obs.metrics.NOOP_METRICS`;
* alerts (:mod:`repro.obs.alerts`) — the SLO rule engine
  (:class:`~repro.obs.alerts.AlertEngine`) evaluating threshold and
  rate-over-window rules on the scrape cadence;
* traces (:mod:`repro.obs.trace`) — the
  :class:`~repro.obs.trace.TraceAssembler` stitching per-process span
  streams into cross-process causal trees by propagated trace context;
* profiles (:mod:`repro.obs.profile`) — the
  :class:`~repro.obs.profile.CriticalPathProfiler` attributing each
  trace's wall time to cost categories along its critical path;
* SLOs (:mod:`repro.obs.slo`) — latency/availability objectives over
  registry metrics with burn-rate rules feeding the alert engine.

See ``python -m repro.harness profile`` for the end-to-end profile built
on the spans (per-span table, rejection census, cross-process
critical-path attribution and SLO verdicts), ``python -m repro.harness
monitor`` for the standing metrics/alerts plane, and DESIGN.md
§4d/§4f/§4j for the span taxonomy, the five registry series and their
readers, and the causal-tracing design.
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
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    NOOP_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NoopInstrument,
    NoopMetricsRegistry,
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
    "NoopMetricsRegistry",
    "NoopInstrument",
    "NOOP_METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
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
