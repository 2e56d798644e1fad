"""Binding: name → OID → contact address → LR installation (Fig. 1)."""

from __future__ import annotations

import pytest

from repro.errors import BindingError, NameNotFound, ObjectNotFound
from repro.globedoc.urls import HybridUrl
from repro.net.address import ContactAddress, Endpoint
from repro.net.health import ReplicaHealthTracker
from repro.proxy.binding import Binder
from repro.proxy.metrics import AccessMetrics
from tests.proxy.conftest import ELEMENTS


class TestResolveOid:
    def test_name_form_resolves(self, stack, published, testbed, ring):
        url = HybridUrl.parse(published.url("index.html"))
        oid = stack.binder.resolve_oid(url)
        assert oid == published.owner.oid
        assert AccessMetrics.from_spans(ring.spans).phase_time("resolve_name") > 0

    def test_oid_form_skips_naming(self, stack, published, testbed, ring):
        url = HybridUrl.for_oid(published.owner.oid, "index.html")
        oid = stack.binder.resolve_oid(url)
        assert oid == published.owner.oid
        assert AccessMetrics.from_spans(ring.spans).phase_time("resolve_name") == 0

    def test_passthrough_url_rejected(self, stack, testbed):
        with pytest.raises(BindingError):
            stack.binder.resolve_oid(HybridUrl.parse("http://x.com/a"))

    def test_unknown_name(self, stack, testbed):
        with pytest.raises(NameNotFound):
            stack.binder.resolve_oid(HybridUrl.for_name("ghost.example"))


class TestBind:
    def test_bind_installs_lr(self, stack, published, testbed, ring):
        bound = stack.binder.bind(HybridUrl.parse(published.url("index.html")))
        assert bound.oid == published.owner.oid
        assert bound.lr.get_element("index.html").content == ELEMENTS["index.html"]
        metrics = AccessMetrics.from_spans(ring.spans)
        assert metrics.phase_time("find_replica") > 0

    def test_bind_unknown_oid(self, stack, testbed, shared_keys):
        from repro.globedoc.oid import ObjectId

        phantom = ObjectId.from_public_key(shared_keys.public)
        with pytest.raises(ObjectNotFound):
            stack.binder.bind(HybridUrl.for_oid(phantom, "x.html"))

    def test_rebind_without_alternative(self, stack, published, testbed):
        bound = stack.binder.bind(HybridUrl.parse(published.url("index.html")))
        assert not bound.has_alternative
        with pytest.raises(BindingError, match="exhausted"):
            stack.binder.rebind(bound)

    def test_rebind_moves_to_next_address(self, stack, published, testbed):
        bound = stack.binder.bind(HybridUrl.parse(published.url("index.html")))
        # Fabricate a second address as the location service would return.
        bound.addresses.append(bound.addresses[0])
        rebound = stack.binder.rebind(bound)
        assert rebound.address_index == 1
        assert rebound.oid == bound.oid


class TestHealthAwareBinding:
    def health_binder(self, stack, testbed):
        health = ReplicaHealthTracker(clock=testbed.clock, failure_threshold=3)
        inner = stack.binder
        return Binder(inner.resolver, inner.location, inner.rpc, health=health), health

    def test_note_replica_failure_without_tracker_is_noop(
        self, stack, published, testbed
    ):
        bound = stack.binder.bind(HybridUrl.parse(published.url("index.html")))
        stack.binder.note_replica_failure(bound)  # must not raise

    def test_note_replica_failure_charges_current_address(
        self, stack, published, testbed
    ):
        binder, health = self.health_binder(stack, testbed)
        bound = binder.bind(HybridUrl.parse(published.url("index.html")))
        binder.note_replica_failure(bound)
        assert health.record(str(bound.address)).consecutive_failures == 1

    def test_quarantine_never_blocks_the_only_replica(
        self, stack, published, testbed
    ):
        """The tracker demotes ordering, it never refuses addresses —
        with a single replica the document must stay reachable."""
        binder, health = self.health_binder(stack, testbed)
        url = HybridUrl.parse(published.url("index.html"))
        bound = binder.bind(url)
        for _ in range(3):
            binder.note_replica_failure(bound)
        assert health.is_quarantined(str(bound.address))
        again = binder.bind(url)
        assert str(again.address) == str(bound.address)

    def test_bind_sinks_quarantined_address(self, stack, published, testbed):
        """With two registered replicas, whichever one is quarantined is
        ordered behind the healthy one at bind time."""
        binder, health = self.health_binder(stack, testbed)
        url = HybridUrl.parse(published.url("index.html"))
        oid = published.owner.oid
        real = binder.bind(url).address
        phantom = ContactAddress(
            endpoint=Endpoint("sporty.cs.vu.nl", "phantom-objectserver"),
            replica_id="phantom",
        )
        site = "root/europe/vu"  # same site as the primary replica
        testbed.location_service.tree.insert(oid.hex, site, phantom)
        binder.location.cache.invalidate(oid.hex)
        try:
            for _ in range(3):
                health.record_failure(str(real))
            bound = binder.bind(url)
            assert str(bound.address) == str(phantom)
            assert len(bound.addresses) == 2  # the quarantined one stays listed

            health.reset()
            for _ in range(3):
                health.record_failure(str(phantom))
            bound = binder.bind(url)
            assert str(bound.address) == str(real)
        finally:
            binder.location.unregister_replica(oid, site, phantom)
