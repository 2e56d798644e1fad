"""Spans and tracers: per-operation timing for the access pipeline.

The paper measured its Fig. 4 numbers by "placing timers in various
parts of the proxy and server code". A :class:`Tracer` is those timers
and one level more (:class:`~repro.proxy.metrics.AccessMetrics` derives
the paper's phase totals from its output): it produces *nested*
:class:`Span` records — one per operation, with attributes, an ok/error
status, and start/end times charged to the injected
:class:`~repro.sim.clock.Clock` — so a single access can be decomposed
into the exact tree of RPCs, security checks, cache probes, retries, and
failovers it executed. Under a ``SimClock`` span durations are exact
simulated time; under a ``RealClock`` they are wall time.

Spans are **causally linked across processes**: every span belongs to a
``trace_id`` minted at its root, and the RPC layer carries the active
span's context inside the request envelope
(:class:`~repro.net.message.Request`). A server-side tracer adopting
that context (:meth:`Tracer.span_from`) records a ``server.handle``
span whose ``remote_parent`` names the client span that caused it, so
one browser access yields one cross-process tree no matter how many
proxy/server/gossip hops it touches. The
:class:`~repro.obs.trace.TraceAssembler` stitches the per-process span
streams back together by trace id.

Spans are delivered to pluggable sinks (:mod:`repro.obs.sinks`) as they
close. Instrumented components default to the module-level
:data:`NOOP_TRACER`, whose ``span()`` returns a shared, allocation-free
context manager — tracing costs near zero unless a real tracer is
injected, and a NOOP client injects *no* context (zero envelope
growth).
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional

from repro.sim.clock import Clock, RealClock

__all__ = [
    "Span",
    "Tracer",
    "NoopTracer",
    "NoopSpan",
    "NOOP_TRACER",
    "parse_context",
]

#: Span statuses. Errors carry the raising exception's class name.
STATUS_OK = "ok"
STATUS_ERROR = "error"

#: Wire keys of one propagated trace context (kept short: the context
#: rides in every RPC envelope).
CTX_TRACE = "trace"
CTX_SPAN = "span"

#: Distinguishes tracers within one process when no explicit origin is
#: given ("t1", "t2", …). Cross-process uniqueness is the caller's job:
#: harnesses name tracers after the component they instrument
#: ("proxy-sporty", "server-ginger").
_ORIGIN_IDS = itertools.count(1)


def parse_context(ctx: Any) -> Optional[Dict[str, str]]:
    """Validate a wire trace context; None when absent or garbage.

    Trace context is advisory metadata: a missing, truncated, or
    hostile ``ctx`` field must never make an RPC fail, so this accepts
    exactly ``{"trace": <non-empty str>, "span": <non-empty str>}`` and
    maps everything else to None.
    """
    if not isinstance(ctx, Mapping):
        return None
    trace = ctx.get(CTX_TRACE)
    span = ctx.get(CTX_SPAN)
    if not isinstance(trace, str) or not trace:
        return None
    if not isinstance(span, str) or not span:
        return None
    return {CTX_TRACE: trace, CTX_SPAN: span}


@dataclass
class Span:
    """One timed operation: name, attributes, status, and its parent."""

    name: str
    span_id: int
    parent_id: Optional[int]
    start: float
    attributes: Dict[str, Any] = field(default_factory=dict)
    end: Optional[float] = None
    status: str = STATUS_OK
    error_type: str = ""
    #: The trace this span belongs to (inherited from the parent span,
    #: adopted from wire context, or minted fresh at a root).
    trace_id: str = ""
    #: The emitting tracer's name; qualifies ``span_id`` globally.
    origin: str = ""
    #: Globally-qualified ref ("origin:span_id") of a parent span that
    #: lives in *another* process, set when the span was opened from
    #: adopted wire context. Mutually exclusive with ``parent_id``.
    remote_parent: Optional[str] = None

    @property
    def duration(self) -> float:
        """Seconds between start and end (0.0 while the span is open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def is_error(self) -> bool:
        return self.status == STATUS_ERROR

    @property
    def ref(self) -> str:
        """Globally-unique span reference: ``origin:span_id``."""
        return f"{self.origin}:{self.span_id}"

    @property
    def parent_ref(self) -> Optional[str]:
        """Globally-qualified parent reference (local or remote)."""
        if self.parent_id is not None:
            return f"{self.origin}:{self.parent_id}"
        return self.remote_parent

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def mark_error(self, exc: BaseException) -> None:
        """Record that *exc* was raised (or handled) inside this span."""
        self.status = STATUS_ERROR
        self.error_type = type(exc).__name__

    def context(self) -> Dict[str, str]:
        """The wire trace context naming this span as the parent."""
        return {CTX_TRACE: self.trace_id, CTX_SPAN: self.ref}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.name!r}, {self.duration * 1e3:.3f}ms, {self.status}"
            f"{', ' + self.error_type if self.error_type else ''})"
        )


class _SpanContext:
    """Context manager for one live span; closes and emits on exit."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc is not None:
            self._span.mark_error(exc)
        self._tracer._close(self._span)
        return False


class Tracer:
    """Produces nested spans over an injected clock.

    Nesting is tracked with an explicit per-thread stack, so a span
    opened while another is live becomes its child (the simulation is
    single-threaded; the TCP transport handles frames in worker
    threads, each of which gets its own nesting stack). Spans are
    pushed to every sink as they close — children before parents, which
    lets streaming sinks see leaf timings without buffering the whole
    tree.

    ``origin`` names this tracer in globally-qualified span refs; give
    each simulated process its own tracer with a distinct origin and
    the :class:`~repro.obs.trace.TraceAssembler` can stitch their span
    streams into cross-process trees.
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        sinks: Iterable = (),
        origin: Optional[str] = None,
    ) -> None:
        self.clock = clock if clock is not None else RealClock()
        self.origin = origin if origin is not None else f"t{next(_ORIGIN_IDS)}"
        self._sinks: List = list(sinks)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._trace_ids = itertools.count(1)

    @property
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------

    def span(self, name: str, /, **attributes: Any) -> _SpanContext:
        """Open a span; use as ``with tracer.span("rpc.call", op=op) as s``.

        The span name is positional-only so ``name=...`` stays available
        as an ordinary attribute. An exception escaping the ``with`` body
        marks the span as an error (recording the exception's class
        name) and re-raises. A root span (no live parent) mints a fresh
        trace id; children inherit the parent's.
        """
        return self._open(name, attributes, remote=None)

    def span_from(self, ctx: Any, name: str, /, **attributes: Any) -> _SpanContext:
        """Open a span adopting a wire trace context.

        This is the server half of cross-process propagation: when the
        local stack is empty and *ctx* is a valid context (see
        :func:`parse_context`), the new span joins the caller's trace
        with the caller's span as its ``remote_parent``. A live local
        parent wins over the wire context (in-process calls already
        nest), and an absent or garbage context degrades to a plain
        root span — propagation is advisory and never an error.
        """
        if self._stack:
            return self._open(name, attributes, remote=None)
        return self._open(name, attributes, remote=parse_context(ctx))

    def context(self) -> Optional[Dict[str, str]]:
        """Wire context of the innermost live span (None when idle)."""
        current = self.current
        return current.context() if current is not None else None

    def _open(
        self,
        name: str,
        attributes: Dict[str, Any],
        remote: Optional[Dict[str, str]],
    ) -> _SpanContext:
        stack = self._stack
        parent = stack[-1] if stack else None
        if parent is not None:
            trace_id = parent.trace_id
            parent_id: Optional[int] = parent.span_id
            remote_parent = None
        elif remote is not None:
            trace_id = remote[CTX_TRACE]
            parent_id = None
            remote_parent = remote[CTX_SPAN]
        else:
            trace_id = f"{self.origin}-{next(self._trace_ids):06d}"
            parent_id = None
            remote_parent = None
        span = Span(
            name=name,
            span_id=next(self._ids),
            parent_id=parent_id,
            start=self.clock.now(),
            attributes=dict(attributes),
            trace_id=trace_id,
            origin=self.origin,
            remote_parent=remote_parent,
        )
        stack.append(span)
        return _SpanContext(self, span)

    @property
    def current(self) -> Optional[Span]:
        """The innermost live span, if any (on the calling thread)."""
        stack = self._stack
        return stack[-1] if stack else None

    def add_sink(self, sink) -> None:
        self._sinks.append(sink)

    # ------------------------------------------------------------------

    def _close(self, span: Span) -> None:
        span.end = self.clock.now()
        # The stack discipline only breaks if a span context outlives an
        # enclosing one (misuse); recover by popping through it.
        stack = self._stack
        while stack:
            popped = stack.pop()
            if popped is span:
                break
        for sink in self._sinks:
            sink.on_span(span)


class NoopSpan:
    """The do-nothing span handed out by :class:`NoopTracer`."""

    __slots__ = ()

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def mark_error(self, exc: BaseException) -> None:
        pass


_NOOP_SPAN = NoopSpan()


class _NoopSpanContext:
    __slots__ = ()

    def __enter__(self) -> NoopSpan:
        return _NOOP_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP_CONTEXT = _NoopSpanContext()


class NoopTracer:
    """A tracer whose spans cost (almost) nothing and record nothing.

    Every instrumented component defaults to :data:`NOOP_TRACER`, so the
    instrumentation adds one shared-object context-manager entry per
    operation when tracing is disabled — no allocation, no clock reads,
    and no trace context on the wire (:meth:`context` returns None, so
    request envelopes stay byte-identical to the untraced build).
    """

    __slots__ = ()

    def span(self, name: str, /, **attributes: Any) -> _NoopSpanContext:
        return _NOOP_CONTEXT

    def span_from(self, ctx: Any, name: str, /, **attributes: Any) -> _NoopSpanContext:
        return _NOOP_CONTEXT

    def context(self) -> None:
        return None

    @property
    def current(self) -> None:
        return None

    def add_sink(self, sink) -> None:  # pragma: no cover - defensive
        raise ValueError("NoopTracer discards spans; attach sinks to a Tracer")


#: The shared disabled tracer; ``tracer or NOOP_TRACER`` is the idiom
#: every instrumented constructor uses.
NOOP_TRACER = NoopTracer()
