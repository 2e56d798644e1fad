"""The security/base decomposition, derived from spans."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import RingBufferSink, Tracer
from repro.obs.span import Span
from repro.proxy.metrics import SECURITY_PHASES, SPAN_PHASES, AccessMetrics
from repro.sim.clock import SimClock


def traced():
    clock = SimClock(0.0)
    ring = RingBufferSink()
    return clock, Tracer(clock=clock, sinks=(ring,), origin="t"), ring


class TestSpanPhases:
    def test_every_security_phase_is_reachable_from_a_span(self):
        assert SECURITY_PHASES <= set(SPAN_PHASES.values())

    def test_phase_names_are_unique_per_span(self):
        assert len(set(SPAN_PHASES.values())) == len(SPAN_PHASES)

    @pytest.mark.parametrize(
        "op, phase",
        [
            ("globedoc.get_public_key", "get_public_key"),
            ("globedoc.get_identity_certificates", "get_identity_proofs"),
            ("globedoc.get_integrity_certificate", "get_integrity_certificate"),
            ("globedoc.get_element", "get_page_element"),
            ("versioning.fetch", "fetch_bundle"),
        ],
    )
    def test_rpc_call_is_split_by_op(self, op, phase):
        clock, tracer, ring = traced()
        with tracer.span("rpc.call", op=op):
            clock.advance(0.25)
        assert AccessMetrics.from_spans(ring.spans).phases == ((phase, 0.25),)

    def test_unlisted_rpc_ops_and_spans_are_not_phases(self):
        clock, tracer, ring = traced()
        with tracer.span("proxy.handle"):
            with tracer.span("rpc.call", op="revocation.fetch"):
                clock.advance(1.0)
            with tracer.span("rpc.call"):  # no op attribute at all
                clock.advance(1.0)
            with tracer.span("session.failover"):
                clock.advance(1.0)
        assert AccessMetrics.from_spans(ring.spans).phases == ()


class TestFromSpans:
    def test_phase_measures_clock_delta(self):
        clock, tracer, ring = traced()
        with tracer.span("rpc.call", op="globedoc.get_element"):
            clock.advance(2.0)
        metrics = AccessMetrics.from_spans(ring.spans)
        assert metrics.phase_time("get_page_element") == pytest.approx(2.0)

    def test_client_processing_charge(self):
        clock, tracer, ring = traced()
        with tracer.span("client_processing"):
            clock.advance(0.5)
        assert AccessMetrics.from_spans(ring.spans).total == pytest.approx(0.5)

    def test_phase_records_on_exception(self):
        clock, tracer, ring = traced()
        with pytest.raises(RuntimeError):
            with tracer.span("check.certificate"):
                clock.advance(1.0)
                raise RuntimeError("boom")
        assert ring.spans[0].is_error
        metrics = AccessMetrics.from_spans(ring.spans)
        assert metrics.phase_time("verify_certificate") == pytest.approx(1.0)

    def test_nested_match_is_counted_once(self):
        """``check.revocation`` ⊃ ``revocation.refresh`` ⊃ ``rpc.call``:
        the feed poll's wire time belongs to the check, once."""
        clock, tracer, ring = traced()
        with tracer.span("proxy.handle"):
            with tracer.span("check.revocation"):
                clock.advance(0.1)
                with tracer.span("revocation.refresh"):
                    with tracer.span("rpc.call", op="globedoc.get_element"):
                        clock.advance(0.4)
                    with tracer.span("cache.put"):
                        clock.advance(0.2)
        metrics = AccessMetrics.from_spans(ring.spans)
        assert metrics.phases == (("check_revocation", pytest.approx(0.7)),)

    def test_retry_attempts_each_contribute_their_call(self):
        """Attempts sit between the session and the call; the backoff
        wait between them is nobody's phase."""
        clock, tracer, ring = traced()
        with tracer.span("proxy.handle"):
            with pytest.raises(OSError):
                with tracer.span("rpc.attempt", attempt=1):
                    with tracer.span("rpc.call", op="globedoc.get_public_key"):
                        clock.advance(0.3)
                        raise OSError("dropped")
            clock.advance(5.0)  # backoff
            with tracer.span("rpc.attempt", attempt=2):
                with tracer.span("rpc.call", op="globedoc.get_public_key"):
                    clock.advance(0.2)
        metrics = AccessMetrics.from_spans(ring.spans)
        assert [name for name, _ in metrics.phases] == ["get_public_key"] * 2
        assert metrics.total == pytest.approx(0.5)

    def test_multiple_roots(self):
        clock, tracer, ring = traced()
        with tracer.span("client_processing"):
            clock.advance(0.005)
        with tracer.span("proxy.handle"):
            with tracer.span("bind.resolve"):
                clock.advance(0.07)
            with tracer.span("check.public_key"):
                clock.advance(0.001)
        metrics = AccessMetrics.from_spans(ring.spans)
        assert metrics.by_phase() == {
            "client_processing": pytest.approx(0.005),
            "resolve_name": pytest.approx(0.07),
            "verify_public_key": pytest.approx(0.001),
        }
        assert metrics.security_time == pytest.approx(0.001)

    def test_orphaned_span_is_its_own_root(self):
        """A span whose parent fell out of the sink still counts."""
        span = Span("cache.get", span_id=7, parent_id=3, start=1.0, end=1.5, origin="t")
        assert AccessMetrics.from_spans([span]).total == pytest.approx(0.5)

    def test_server_side_spans_hide_under_the_call_that_caused_them(self):
        client = Span(
            "rpc.call", span_id=1, parent_id=None, start=0.0, end=1.0,
            origin="proxy", attributes={"op": "globedoc.get_element"},
        )
        server = Span(
            "cache.get", span_id=1, parent_id=None, start=0.2, end=0.4,
            origin="server", remote_parent=client.ref,
        )
        metrics = AccessMetrics.from_spans([server, client])
        assert metrics.phases == (("get_page_element", 1.0),)


#: A span tree as nested (name, [children]) with every node one second
#: of self time; names drawn from matched and unmatched span families.
NAMES = st.sampled_from(
    ["proxy.handle", "session.fetch", "rpc.attempt", "revocation.refresh"]
    + [name for name in SPAN_PHASES if not name.startswith("rpc.call/")]
)
TREES = st.recursive(
    st.tuples(NAMES, st.just([])),
    lambda children: st.tuples(NAMES, st.lists(children, max_size=3)),
    max_leaves=12,
)


def emit(tracer, clock, tree, counted, enclosed=False):
    """Replay *tree* through the tracer; append to *counted* the span
    names a correct decomposition counts (matched, no matched ancestor)."""
    name, children = tree
    matched = name in SPAN_PHASES
    if matched and not enclosed:
        counted.append(name)
    with tracer.span(name):
        clock.advance(1.0)
        for child in children:
            emit(tracer, clock, child, counted, enclosed or matched)


class TestFromSpansProperties:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(TREES, min_size=1, max_size=3))
    def test_no_span_contributes_twice_and_total_is_bounded(self, forest):
        clock, tracer, ring = traced()
        counted = []
        for tree in forest:
            emit(tracer, clock, tree, counted)
        spans = ring.spans
        metrics = AccessMetrics.from_spans(spans)
        assert sorted(name for name, _ in metrics.phases) == sorted(
            SPAN_PHASES[name] for name in counted
        )
        roots = [span for span in spans if span.parent_id is None]
        assert metrics.total <= sum(root.duration for root in roots) + 1e-9
        # Feeding the same spans twice changes nothing: refs are unique.
        assert AccessMetrics.from_spans(spans + spans) == metrics


class TestAccessMetrics:
    def make(self):
        return AccessMetrics(
            phases=(
                ("resolve_name", 1.0),
                ("get_page_element", 3.0),
                ("get_public_key", 0.5),
                ("verify_element_hash", 0.5),
            )
        )

    def test_total(self):
        assert self.make().total == pytest.approx(5.0)

    def test_security_split(self):
        metrics = self.make()
        assert metrics.security_time == pytest.approx(1.0)
        assert metrics.base_time == pytest.approx(4.0)
        assert metrics.overhead_percent == pytest.approx(20.0)

    def test_empty_metrics(self):
        empty = AccessMetrics(phases=())
        assert empty.total == 0.0
        assert empty.overhead_fraction == 0.0
        assert AccessMetrics.from_spans([]) == empty

    def test_by_phase_aggregates_repeats(self):
        metrics = AccessMetrics(phases=(("a", 1.0), ("a", 2.0)))
        assert metrics.by_phase() == {"a": 3.0}

    def test_merged(self):
        """Several accesses decompose together: from_spans over all of
        their roots is the concatenation of their phases."""
        clock, tracer, ring = traced()
        for seconds in (1.0, 2.0):
            with tracer.span("proxy.handle"):
                with tracer.span("rpc.call", op="globedoc.get_element"):
                    clock.advance(seconds)
        first, second = (
            AccessMetrics.from_spans(ring.spans[:2]),
            AccessMetrics.from_spans(ring.spans[2:]),
        )
        merged = AccessMetrics.from_spans(ring.spans)
        assert merged.phases == first.phases + second.phases
        assert merged.total == pytest.approx(3.0)

    def test_security_phase_list_matches_paper(self):
        """§4 enumerates the security-specific operations; our phase set
        must cover them: key retrieval, OID hash check, certificate
        retrieval + verification, element hash computation."""
        for phase in (
            "get_public_key",
            "verify_public_key",
            "get_integrity_certificate",
            "verify_certificate",
            "verify_element_hash",
        ):
            assert phase in SECURITY_PHASES
        # Transfer of the element itself is NOT security overhead.
        assert "get_page_element" not in SECURITY_PHASES
        assert "resolve_name" not in SECURITY_PHASES
        assert "find_replica" not in SECURITY_PHASES
