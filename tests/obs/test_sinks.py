"""Sink behaviour: ring buffer retention, aggregation."""

from __future__ import annotations

import pytest

from repro.obs import RingBufferSink, SpanStats, Tracer
from repro.sim.clock import SimClock


def make_spans(durations, name="work", error_on=()):
    """Emit one span per duration through a tracer into the given sinks."""
    clock = SimClock(0.0)
    tracer = Tracer(clock=clock)
    spans = []

    class Collect:
        def on_span(self, span):
            spans.append(span)

    tracer.add_sink(Collect())
    for i, duration in enumerate(durations):
        with tracer.span(name, index=i) as span:
            clock.advance(duration)
            if i in error_on:
                span.mark_error(ValueError(f"bad {i}"))
    return spans


class TestRingBufferSink:
    def test_retains_up_to_capacity(self):
        ring = RingBufferSink(capacity=3)
        for span in make_spans([0.1] * 5):
            ring.on_span(span)
        assert len(ring) == 3
        assert ring.seen == 5
        assert ring.dropped == 2
        # Oldest dropped first.
        assert [s.attributes["index"] for s in ring.spans] == [2, 3, 4]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)

    def test_named_and_errors(self):
        ring = RingBufferSink()
        for span in make_spans([0.1, 0.2], name="a", error_on={1}):
            ring.on_span(span)
        for span in make_spans([0.3], name="b"):
            ring.on_span(span)
        assert len(ring.named("a")) == 2
        assert len(ring.named("b")) == 1
        errors = ring.errors()
        assert len(errors) == 1
        assert errors[0].error_type == "ValueError"

    def test_slowest(self):
        ring = RingBufferSink()
        for span in make_spans([0.3, 0.1, 0.5, 0.2]):
            ring.on_span(span)
        slowest = ring.slowest(2)
        assert [s.duration for s in slowest] == [0.5, 0.3]

    def test_drain_returns_and_clears_atomically(self):
        ring = RingBufferSink(capacity=4)
        spans = make_spans([0.1] * 3)
        for span in spans:
            ring.on_span(span)
        drained = ring.drain()
        assert drained == spans
        assert len(ring) == 0
        # Drained spans were delivered, not lost: seen stays, dropped
        # does not grow.
        assert ring.seen == 3
        assert ring.dropped == 0
        assert ring.drain() == []

    def test_drain_under_concurrent_append(self):
        import threading

        ring = RingBufferSink(capacity=10_000)
        spans = make_spans([0.01] * 500)
        collected = []
        stop = threading.Event()

        def drainer():
            while not stop.is_set():
                collected.extend(ring.drain())
            collected.extend(ring.drain())

        thread = threading.Thread(target=drainer)
        thread.start()
        try:
            for span in spans:
                ring.on_span(span)
        finally:
            stop.set()
            thread.join()
        # Every span ends up exactly once: drained or still buffered,
        # never dropped, never duplicated.
        assert ring.dropped == 0
        assert ring.seen == 500
        assert len(collected) + len(ring) == 500
        assert len({id(s) for s in collected + ring.spans}) == 500

    def test_clear_preserves_cumulative_counters(self):
        ring = RingBufferSink(capacity=2)
        for span in make_spans([0.1] * 3):
            ring.on_span(span)
        assert ring.seen == 3
        assert ring.dropped == 1
        ring.clear()
        assert len(ring) == 0
        assert ring.spans == []
        # Lifetime accounting is monotone: a buffer reset is not a drop
        # and must not look like traffic vanishing.
        assert ring.seen == 3
        assert ring.dropped == 1
        for span in make_spans([0.1]):
            ring.on_span(span)
        assert ring.seen == 4
        assert ring.dropped == 1  # plenty of room after the clear


class TestSpanStats:
    def test_count_total_percentiles(self):
        stats = SpanStats()
        durations = [float(i) for i in range(1, 11)]  # 1..10
        for span in make_spans(durations):
            stats.on_span(span)
        table = stats.stats()["work"]
        assert table["count"] == 10
        assert table["errors"] == 0
        assert table["total_s"] == pytest.approx(55.0)
        assert table["mean_s"] == pytest.approx(5.5)
        assert table["p50_s"] == pytest.approx(5.5)
        assert table["p95_s"] == pytest.approx(9.55)
        assert table["max_s"] == 10.0

    def test_error_accounting_and_census(self):
        stats = SpanStats()
        for span in make_spans([0.1] * 4, name="check.hash", error_on={1, 3}):
            stats.on_span(span)
        for span in make_spans([0.1], name="rpc.call", error_on={0}):
            stats.on_span(span)
        table = stats.stats()["check.hash"]
        assert table["errors"] == 2
        assert table["error_types"] == {"ValueError": 2}
        census = stats.error_census(prefix="check.")
        assert census == {"check.hash": {"ValueError": 2}}
        assert "rpc.call" in stats.error_census()

    def test_sample_cap_keeps_exact_counts(self):
        stats = SpanStats(max_samples_per_name=2)
        for span in make_spans([1.0, 2.0, 3.0]):
            stats.on_span(span)
        entry = stats.stats()["work"]
        assert entry["count"] == 3
        assert entry["total_s"] == pytest.approx(6.0)
        assert entry["max_s"] == 3.0
        # Percentiles describe only the retained samples.
        assert entry["p95_s"] <= 2.0

    def test_invalid_cap(self):
        with pytest.raises(ValueError):
            SpanStats(max_samples_per_name=0)

    def test_unclosed_spans_skipped_but_counted(self):
        from repro.obs.span import Span

        stats = SpanStats()
        for span in make_spans([1.0, 2.0]):
            stats.on_span(span)
        open_span = Span(name="work", span_id=99, parent_id=None, start=0.0)
        stats.on_span(open_span)
        table = stats.stats()["work"]
        # The open span neither distorts the aggregates...
        assert table["count"] == 2
        assert table["total_s"] == pytest.approx(3.0)
        # ...nor disappears silently.
        assert stats.unclosed_total == 1

    def test_names_get_and_clear(self):
        stats = SpanStats()
        for span in make_spans([0.1], name="b"):
            stats.on_span(span)
        for span in make_spans([0.1], name="a"):
            stats.on_span(span)
        assert stats.names == ["a", "b"]
        assert stats.get("a").count == 1
        assert stats.get("missing") is None
        stats.clear()
        assert stats.names == []
