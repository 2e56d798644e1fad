"""Secure sessions: binding establishment, caching, fetch verification."""

from __future__ import annotations

import pytest

from repro.errors import BindingError, TransportError
from repro.globedoc.urls import HybridUrl
from repro.net.address import ContactAddress, Endpoint
from repro.proxy.binding import BoundObject
from repro.proxy.metrics import AccessMetrics
from repro.proxy.session import SecureSession
from repro.server.localrep import ProxyLR
from tests.proxy.conftest import ELEMENTS

#: A host that exists in the testbed but runs no object server there —
#: every RPC to it dies with a clean TransportError.
DEAD = ContactAddress(
    endpoint=Endpoint(host="ginger.cs.vu.nl", service="crashed-objectserver"),
    replica_id="dead",
)


def make_session(stack, published, testbed, **kwargs) -> SecureSession:
    bound = stack.binder.bind(HybridUrl.parse(published.url("index.html")))
    return SecureSession(binder=stack.binder, checker=stack.checker, bound=bound, **kwargs)


def measured(ring, call, *args):
    """``call(*args)`` and the decomposition of exactly the spans it emitted."""
    ring.clear()
    result = call(*args)
    return result, AccessMetrics.from_spans(ring.spans)


def rebound(stack, bound: BoundObject, addresses, index: int) -> BoundObject:
    """The same object, bound to an explicit address list."""
    return BoundObject(
        oid=bound.oid,
        addresses=list(addresses),
        address_index=index,
        lr=ProxyLR(stack.binder.rpc, addresses[index]),
    )


class TestEstablish:
    def test_establish_verifies_binding(self, stack, published, testbed):
        session = make_session(stack, published, testbed)
        verified = session.establish()
        assert verified.oid == published.owner.oid
        assert verified.public_key == published.owner.public_key
        verified.integrity.verify_signature(published.owner.public_key)

    def test_cached_binding_reused(self, stack, published, testbed, ring):
        session = make_session(stack, published, testbed)
        first = session.establish()
        second, metrics = measured(ring, session.establish)
        assert first is second
        assert metrics.total == 0.0  # no network activity on reuse

    def test_uncached_repeats_exchange(self, stack, published, testbed):
        session = make_session(stack, published, testbed, cache_binding=False)
        session.fetch("index.html")
        assert session.verified is None  # dropped after each fetch


class TestFetch:
    def test_fetch_verified_content(self, stack, published, testbed, ring):
        session = make_session(stack, published, testbed)
        result, metrics = measured(ring, session.fetch, "index.html")
        assert result.content == ELEMENTS["index.html"]
        assert metrics.total > 0
        assert metrics.security_time > 0

    def test_fetch_both_elements(self, stack, published, testbed):
        session = make_session(stack, published, testbed)
        assert session.fetch("img/logo.png").content == ELEMENTS["img/logo.png"]
        assert session.fetch("index.html").content == ELEMENTS["index.html"]

    def test_second_fetch_cheaper_with_cache(self, stack, published, testbed, ring):
        """The ~2 KB key+certificate exchange happens once per binding."""
        session = make_session(stack, published, testbed)
        _, first = measured(ring, session.fetch, "index.html")
        _, second = measured(ring, session.fetch, "index.html")
        assert second.total < first.total
        assert second.phase_time("get_public_key") == 0.0
        assert second.phase_time("get_integrity_certificate") == 0.0

    def test_unknown_element_fails_consistency(self, stack, published, testbed):
        from repro.errors import ConsistencyError, RpcError

        session = make_session(stack, published, testbed)
        with pytest.raises((ConsistencyError, RpcError)):
            session.fetch("ghost.html")

    def test_invalidate_forces_reestablish(self, stack, published, testbed, ring):
        session = make_session(stack, published, testbed)
        session.fetch("index.html")
        session.invalidate()
        _, metrics = measured(ring, session.fetch, "index.html")
        assert metrics.phase_time("get_public_key") > 0


class TestFailover:
    """Transport faults trigger the same rebind path as security
    violations — and a new replica is always re-verified from scratch."""

    def test_establish_fails_over_on_transport_error(self, stack, published, testbed):
        session = make_session(stack, published, testbed)
        good = session.bound.addresses
        session.bound = rebound(stack, session.bound, [DEAD] + good, 0)
        verified = session.establish()
        assert verified.oid == published.owner.oid
        assert session.rebind_count == 1
        assert str(session.bound.address) == str(good[0])

    def test_midfetch_failover_reverifies_binding(
        self, stack, published, testbed, ring
    ):
        session = make_session(stack, published, testbed, tracer=stack.proxy.tracer)
        session.fetch("index.html")  # warm: binding verified and cached
        good = session.bound.addresses
        session.bound = rebound(stack, session.bound, [DEAD] + good, 0)
        result, metrics = measured(ring, session.fetch, "index.html")
        assert result.content == ELEMENTS["index.html"]
        # The cached binding was NOT reused: the replacement replica's
        # key and certificate were fetched and verified afresh.
        assert metrics.phase_time("get_public_key") > 0
        assert metrics.phase_time("get_integrity_certificate") > 0
        # ...and the failed element fetch against the dead replica is
        # in the decomposition too, as an error-status call.
        (failover,) = ring.named("session.failover")
        assert failover.attributes["cause"] == "TransportError"
        assert not failover.is_error
        assert len(ring.named("rpc.call")) == 4  # dead fetch, key, cert, fetch

    def test_exhaustion_chains_binding_failure(self, stack, published, testbed):
        """Regression: when rebinding has nowhere left to go, the caller
        sees the operational root cause with the binding exhaustion
        attached as ``__cause__`` — not a bare swallowed error."""
        session = make_session(stack, published, testbed)
        # Every genuine address is already in the tried list, so the
        # widened lookup yields nothing fresh.
        all_tried = list(session.bound.addresses) + [DEAD]
        session.bound = rebound(stack, session.bound, all_tried, len(all_tried) - 1)
        with pytest.raises(TransportError) as excinfo:
            session.establish()
        assert isinstance(excinfo.value.__cause__, BindingError)

    def test_unexpected_rebind_error_propagates(
        self, stack, published, testbed, monkeypatch
    ):
        """Regression: only binding-layer failures are folded into the
        original error; a genuine bug in rebinding must surface as-is."""
        session = make_session(stack, published, testbed)
        session.bound = rebound(stack, session.bound, [DEAD], 0)

        def broken_rebind(bound):
            raise RuntimeError("rebind bug")

        monkeypatch.setattr(stack.binder, "rebind", broken_rebind)
        with pytest.raises(RuntimeError, match="rebind bug"):
            session.establish()

    def test_max_rebinds_zero_disables_failover(self, stack, published, testbed):
        session = make_session(stack, published, testbed, max_rebinds=0)
        good = session.bound.addresses
        session.bound = rebound(stack, session.bound, [DEAD] + good, 0)
        with pytest.raises(TransportError):
            session.establish()
        assert session.rebind_count == 0
