"""Tracer and span semantics: nesting, timing, status, noop cost."""

from __future__ import annotations

import pytest

from repro.errors import AuthenticityError
from repro.obs import NOOP_TRACER, NoopTracer, RingBufferSink, Span, Tracer
from repro.obs.span import NoopSpan
from repro.sim.clock import SimClock


@pytest.fixture
def clock():
    return SimClock(1000.0)


@pytest.fixture
def ring():
    return RingBufferSink()


@pytest.fixture
def tracer(clock, ring):
    return Tracer(clock=clock, sinks=(ring,))


class TestSpanBasics:
    def test_duration_from_clock(self, tracer, clock, ring):
        with tracer.span("work"):
            clock.advance(2.5)
        (span,) = ring.spans
        assert span.name == "work"
        assert span.duration == 2.5
        assert span.start == 1000.0
        assert span.end == 1002.5

    def test_open_span_has_zero_duration(self, tracer):
        with tracer.span("work") as span:
            assert span.duration == 0.0

    def test_attributes_from_kwargs_and_setter(self, tracer, ring):
        with tracer.span("rpc", op="get", target="ginger") as span:
            span.set_attribute("bytes", 128)
        (span,) = ring.spans
        assert span.attributes == {"op": "get", "target": "ginger", "bytes": 128}

    def test_name_attribute_does_not_collide(self, tracer, ring):
        # The span-name parameter is positional-only, so components can
        # attach an attribute literally called "name".
        with tracer.span("bind.resolve", name="vu.nl/doc"):
            pass
        (span,) = ring.spans
        assert span.attributes["name"] == "vu.nl/doc"

    def test_ok_status_by_default(self, tracer, ring):
        with tracer.span("work"):
            pass
        (span,) = ring.spans
        assert span.status == "ok"
        assert not span.is_error
        assert span.error_type == ""


class TestErrorStatus:
    def test_escaping_exception_marks_error_and_reraises(self, tracer, ring):
        with pytest.raises(AuthenticityError):
            with tracer.span("check"):
                raise AuthenticityError("hash mismatch")
        (span,) = ring.spans
        assert span.is_error
        assert span.error_type == "AuthenticityError"

    def test_explicit_mark_error_keeps_control_flow(self, tracer, ring):
        with tracer.span("attempt") as span:
            span.mark_error(TimeoutError("no answer"))
        (span,) = ring.spans
        assert span.is_error
        assert span.error_type == "TimeoutError"


class TestNesting:
    def test_child_gets_parent_id(self, tracer, ring):
        with tracer.span("parent"):
            with tracer.span("child"):
                pass
        child, parent = ring.spans  # children close (and emit) first
        assert child.name == "child"
        assert parent.parent_id is None
        assert child.parent_id == parent.span_id

    def test_siblings_share_parent(self, tracer, ring):
        with tracer.span("parent"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        a, b, parent = ring.spans
        assert a.parent_id == b.parent_id == parent.span_id

    def test_current_tracks_innermost(self, tracer):
        assert tracer.current is None
        with tracer.span("outer") as outer:
            assert tracer.current is outer
            with tracer.span("inner") as inner:
                assert tracer.current is inner
            assert tracer.current is outer
        assert tracer.current is None

    def test_span_ids_unique(self, tracer, ring):
        for _ in range(5):
            with tracer.span("s"):
                pass
        ids = [s.span_id for s in ring.spans]
        assert len(set(ids)) == 5


class TestTraceContext:
    def test_root_mints_trace_id_children_inherit(self, clock, ring):
        tracer = Tracer(clock=clock, sinks=(ring,), origin="proxy-a")
        with tracer.span("proxy.handle") as root:
            with tracer.span("rpc.call") as child:
                pass
        assert root.trace_id == "proxy-a-000001"
        assert child.trace_id == root.trace_id
        with tracer.span("proxy.handle") as second:
            pass
        assert second.trace_id == "proxy-a-000002"

    def test_context_names_innermost_live_span(self, tracer):
        assert tracer.context() is None  # idle tracer: nothing to carry
        with tracer.span("outer"):
            with tracer.span("inner") as inner:
                ctx = tracer.context()
                assert ctx == {"trace": inner.trace_id, "span": inner.ref}
        assert tracer.context() is None

    def test_ref_is_origin_qualified(self, clock):
        tracer = Tracer(clock=clock, origin="server-x")
        with tracer.span("server.handle") as span:
            assert span.ref == f"server-x:{span.span_id}"
            assert span.parent_ref is None

    def test_adoption_sets_remote_parent(self, clock, ring):
        tracer = Tracer(clock=clock, sinks=(ring,), origin="server-x")
        ctx = {"trace": "client-000009", "span": "client:4"}
        with tracer.span_from(ctx, "server.handle") as span:
            pass
        assert span.trace_id == "client-000009"
        assert span.remote_parent == "client:4"
        assert span.parent_id is None
        assert span.parent_ref == "client:4"

    def test_parse_context_accepts_exactly_the_wire_shape(self):
        from repro.obs.span import parse_context

        good = {"trace": "t-000001", "span": "t:1"}
        assert parse_context(good) == good
        assert parse_context({**good, "extra": "ignored"}) == good
        for garbage in (
            None, "t:1", 7, [], {},
            {"trace": "t-000001"}, {"span": "t:1"},
            {"trace": "", "span": "t:1"}, {"trace": "t", "span": ""},
            {"trace": 1, "span": "t:1"}, {"trace": "t", "span": 1},
        ):
            assert parse_context(garbage) is None


class TestNoopTracer:
    def test_shared_context_and_span(self):
        tracer = NoopTracer()
        ctx1 = tracer.span("a", x=1)
        ctx2 = tracer.span("b")
        assert ctx1 is ctx2  # no allocation per call
        with ctx1 as span:
            assert isinstance(span, NoopSpan)
            span.set_attribute("k", "v")
            span.mark_error(ValueError("ignored"))

    def test_exceptions_propagate(self):
        with pytest.raises(ValueError):
            with NOOP_TRACER.span("work"):
                raise ValueError("boom")

    def test_current_is_none(self):
        assert NOOP_TRACER.current is None

    def test_add_sink_rejected(self):
        with pytest.raises(ValueError):
            NOOP_TRACER.add_sink(RingBufferSink())


class TestSinkDelivery:
    def test_children_emitted_before_parents(self, tracer, ring):
        with tracer.span("root"):
            with tracer.span("leaf"):
                pass
        assert [s.name for s in ring.spans] == ["leaf", "root"]

    def test_add_sink_after_construction(self, clock):
        tracer = Tracer(clock=clock)
        late = RingBufferSink()
        tracer.add_sink(late)
        with tracer.span("work"):
            pass
        assert len(late) == 1
