"""Span sinks: where closed spans go.

Two collectors cover the observability needs of the harness and tests:

* :class:`RingBufferSink` — the last N spans, for post-mortem queries
  ("which span rejected that access?", "what were the slowest spans?");
* :class:`SpanStats` — constant-ish-memory aggregation per span name:
  count, error count, total/mean and p50/p95 durations — the input of
  the trace profile's per-phase breakdown.

All sinks implement a single method, ``on_span(span)``, called by the
tracer as each span closes (children before parents).
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol

from repro.obs.span import Span
from repro.util.stats import percentile

__all__ = ["SpanSink", "RingBufferSink", "SpanStats", "NameStats"]


class SpanSink(Protocol):
    """Anything that accepts closed spans."""

    def on_span(self, span: Span) -> None: ...


class RingBufferSink:
    """Keeps the most recent *capacity* spans in memory.

    Appends, reads, and :meth:`drain` are serialised by an internal
    lock: the TCP transport closes spans from worker threads while the
    :class:`~repro.obs.trace.TraceAssembler` drains the buffer, and the
    seen/dropped accounting must stay consistent under that race (a
    drained span is neither lost nor double-counted).
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._spans: "deque[Span]" = deque(maxlen=capacity)
        self._lock = threading.Lock()
        #: Lifetime spans received — cumulative, survives :meth:`clear`.
        self.seen = 0
        self._dropped = 0

    def on_span(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) == self.capacity:
                self._dropped += 1  # the oldest span is about to fall off
            self._spans.append(span)
            self.seen += 1

    @property
    def spans(self) -> List[Span]:
        """The retained spans, oldest first."""
        with self._lock:
            return list(self._spans)

    def drain(self) -> List[Span]:
        """Atomically remove and return the retained spans, oldest first.

        The assembler's collection primitive: spans handed out by a
        drain count as delivered, not dropped, and any span appended
        concurrently is either included in this drain or left for the
        next one — never lost.
        """
        with self._lock:
            drained = list(self._spans)
            self._spans.clear()
        return drained

    @property
    def dropped(self) -> int:
        """Lifetime spans lost to capacity overflow — cumulative, and
        unaffected by :meth:`clear` (an explicit clear is not a drop)."""
        return self._dropped

    def named(self, name: str) -> List[Span]:
        return [s for s in self._spans if s.name == name]

    def errors(self) -> List[Span]:
        return [s for s in self._spans if s.is_error]

    def slowest(self, n: int = 10) -> List[Span]:
        """The *n* longest retained spans, longest first."""
        return sorted(self._spans, key=lambda s: s.duration, reverse=True)[:n]

    def clear(self) -> None:
        """Drop the retained spans; the cumulative ``seen``/``dropped``
        accounting is preserved (monitoring counters must be monotone —
        a buffer reset must not look like traffic vanishing)."""
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


@dataclass
class NameStats:
    """Aggregate for one span name (durations kept up to a sample cap)."""

    count: int = 0
    errors: int = 0
    total_s: float = 0.0
    max_s: float = 0.0

    def __post_init__(self) -> None:
        self.samples: List[float] = []
        self.error_types: Counter = Counter()


class SpanStats:
    """Aggregating sink: count / errors / total / p50 / p95 per name.

    Durations are retained up to ``max_samples_per_name`` per span name
    for the percentile estimates (count/total/max stay exact beyond the
    cap; percentiles then describe the first N samples).

    An *unclosed* span (``end is None`` — a tracer only emits closed
    spans, but a buggy or eager caller may feed one directly) reports a
    duration of 0.0, which would silently drag p50/mean toward zero.
    Such spans are skipped entirely and tallied in ``unclosed_total``
    so the corruption is visible instead of baked into the stats.
    """

    def __init__(self, max_samples_per_name: int = 8192) -> None:
        if max_samples_per_name <= 0:
            raise ValueError(
                f"max_samples_per_name must be positive, got {max_samples_per_name}"
            )
        self.max_samples_per_name = max_samples_per_name
        self._by_name: Dict[str, NameStats] = {}
        #: Spans rejected because they were never closed.
        self.unclosed_total = 0

    def on_span(self, span: Span) -> None:
        if span.end is None:
            self.unclosed_total += 1
            return
        stats = self._by_name.get(span.name)
        if stats is None:
            stats = self._by_name[span.name] = NameStats()
        duration = span.duration
        stats.count += 1
        stats.total_s += duration
        stats.max_s = max(stats.max_s, duration)
        if span.is_error:
            stats.errors += 1
            stats.error_types[span.error_type] += 1
        if len(stats.samples) < self.max_samples_per_name:
            stats.samples.append(duration)

    # ------------------------------------------------------------------

    @property
    def names(self) -> List[str]:
        return sorted(self._by_name)

    def get(self, name: str) -> Optional[NameStats]:
        return self._by_name.get(name)

    def stats(self) -> Dict[str, dict]:
        """The per-name summary table (JSON-ready)."""
        out: Dict[str, dict] = {}
        for name in self.names:
            s = self._by_name[name]
            out[name] = {
                "count": s.count,
                "errors": s.errors,
                "total_s": s.total_s,
                "mean_s": s.total_s / s.count if s.count else 0.0,
                "p50_s": percentile(s.samples, 50) if s.samples else 0.0,
                "p95_s": percentile(s.samples, 95) if s.samples else 0.0,
                "max_s": s.max_s,
            }
            if s.error_types:
                out[name]["error_types"] = dict(s.error_types)
        return out

    def error_census(self, prefix: str = "") -> Dict[str, Dict[str, int]]:
        """Error spans grouped by name → exception type (optionally
        restricted to names starting with *prefix*)."""
        out: Dict[str, Dict[str, int]] = {}
        for name, s in self._by_name.items():
            if s.error_types and name.startswith(prefix):
                out[name] = dict(s.error_types)
        return out

    def clear(self) -> None:
        self._by_name.clear()
