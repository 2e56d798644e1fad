"""Replica auditing: detection and eviction of corrupt replicas (§3.3)."""

from __future__ import annotations

import pytest

from repro.attacks.malicious_server import (
    ElementSwapRenamedBehavior,
    MaliciousReplica,
    StaleReplayBehavior,
    TamperBehavior,
)
from repro.errors import ReproError
from repro.globedoc.element import PageElement
from repro.globedoc.owner import DocumentOwner
from repro.harness.experiment import Testbed
from repro.net.address import Endpoint
from repro.replication.audit import ReplicaAuditor
from tests.conftest import fast_keys

EVIL_HOST = "canardo.inria.fr"
EVIL_SITE = "root/europe/inria"


@pytest.fixture
def world():
    testbed = Testbed()
    owner = DocumentOwner("vu.nl/audited", keys=fast_keys(), clock=testbed.clock)
    owner.put_element(PageElement("index.html", b"<html>v1 page</html>"))
    owner.put_element(PageElement("extra.html", b"<html>extra</html>"))
    v1 = owner.publish(validity=120.0)
    owner.put_element(PageElement("index.html", b"<html>v2 page</html>"))
    published = testbed.publish(owner, validity=3600.0)
    return testbed, owner, v1, published


def make_auditor(testbed, health=None):
    """An auditor at the VU, on a client stack's rpc and location client."""
    stack = testbed.client_stack("sporty.cs.vu.nl")
    return ReplicaAuditor(stack.rpc, stack.location, testbed.clock, health=health)


@pytest.fixture
def auditor(world):
    return make_auditor(world[0])


def deploy_evil(testbed, published, behavior):
    replica = MaliciousReplica(
        host=EVIL_HOST, document=published.document, behavior=behavior
    )
    testbed.network.register(
        Endpoint(EVIL_HOST, "objectserver"), replica.rpc_server().handle_frame
    )
    testbed.location_service.tree.insert(
        published.owner.oid.hex, EVIL_SITE, replica.contact_address()
    )
    return replica


class TestAudit:
    def test_clean_deployment(self, world, auditor):
        testbed, owner, v1, published = world
        summary = auditor.audit(owner.oid)
        assert summary.clean
        assert len(summary.healthy) == 1
        assert summary.healthy[0].version == 2
        assert summary.healthy[0].elements_checked == 2

    def test_tampering_replica_flagged(self, world, auditor):
        testbed, owner, v1, published = world
        deploy_evil(testbed, published, TamperBehavior("index.html"))
        summary = auditor.audit(owner.oid)
        assert len(summary.corrupt) == 1
        assert "AuthenticityError" in summary.corrupt[0].violation
        assert len(summary.healthy) == 1  # the genuine one still fine

    def test_stale_replay_flagged_after_expiry(self, world, auditor):
        testbed, owner, v1, published = world
        deploy_evil(testbed, published, StaleReplayBehavior(v1))
        testbed.clock.advance(121.0)
        summary = auditor.audit(owner.oid)
        assert len(summary.corrupt) == 1
        assert "FreshnessError" in summary.corrupt[0].violation

    def test_renamed_swap_flagged(self, world, auditor):
        testbed, owner, v1, published = world
        deploy_evil(
            testbed, published, ElementSwapRenamedBehavior("index.html", "extra.html")
        )
        summary = auditor.audit(owner.oid)
        assert len(summary.corrupt) == 1

    def test_unreachable_replica_flagged(self, world, auditor):
        testbed, owner, v1, published = world
        # A registered address with nothing behind it.
        from repro.net.address import ContactAddress, Endpoint as Ep

        ghost = ContactAddress(
            endpoint=Ep(host="ensamble02.cornell.edu", service="objectserver"),
            replica_id="ghost",
        )
        testbed.location_service.tree.insert(owner.oid.hex, "root/us/cornell", ghost)
        summary = auditor.audit(owner.oid)
        assert len(summary.unreachable) == 1

    def test_sampling_bounds_work(self, world, auditor):
        testbed, owner, v1, published = world
        summary = auditor.audit(owner.oid, sample_elements=1)
        assert summary.healthy[0].elements_checked == 1

    def test_unregistered_oid_audits_empty(self, world, auditor):
        from repro.globedoc.oid import ObjectId

        phantom = ObjectId.from_public_key(fast_keys().public)
        summary = auditor.audit(phantom)
        assert summary.verdicts == []


class TestEviction:
    def test_evict_corrupt_restores_clean_state(self, world, auditor):
        testbed, owner, v1, published = world
        deploy_evil(testbed, published, TamperBehavior("index.html"))
        site_of = {EVIL_HOST: EVIL_SITE, "ginger.cs.vu.nl": "root/europe/vu"}
        summary = auditor.audit_and_evict(owner.oid, site_of)
        assert len(summary.corrupt) == 1
        # The corrupt address is gone from the location service…
        assert (
            testbed.location_service.tree.addresses_at(owner.oid.hex, EVIL_SITE) == []
        )
        # …and a Paris client now binds to the genuine replica directly.
        stack = testbed.client_stack(EVIL_HOST)
        response = stack.proxy.handle(published.url("index.html"))
        assert response.ok
        assert response.content == b"<html>v2 page</html>"

    def test_refuses_to_evict_healthy(self, world, auditor):
        testbed, owner, v1, published = world
        summary = auditor.audit(owner.oid)
        with pytest.raises(ReproError, match="healthy"):
            auditor.evict(owner.oid, summary.healthy[0], "root/europe/vu")


class TestHealthIntegration:
    """The auditor and the client stack share one replica-health view."""

    def test_audit_verdicts_feed_tracker(self, world):
        from repro.net.health import ReplicaHealthTracker

        testbed, owner, v1, published = world
        health = ReplicaHealthTracker(clock=testbed.clock, failure_threshold=2)
        auditor = make_auditor(testbed, health)
        evil = deploy_evil(testbed, published, TamperBehavior("index.html"))
        for _ in range(2):
            summary = auditor.audit(owner.oid)
        assert len(summary.corrupt) == 1
        assert health.is_quarantined(str(evil.contact_address()))
        # The genuine replica's successes were recorded too.
        genuine = summary.healthy[0].address
        assert health.record(str(genuine)).total_successes == 2

    def test_audit_success_does_not_clear_client_quarantine(self, world):
        from repro.net.health import ReplicaHealthTracker

        testbed, owner, v1, published = world
        health = ReplicaHealthTracker(clock=testbed.clock, failure_threshold=3)
        auditor = make_auditor(testbed, health)
        summary = auditor.audit(owner.oid)
        genuine = str(summary.healthy[0].address)
        # Clients hammered this replica into quarantine…
        for _ in range(3):
            health.record_failure(genuine)
        assert health.is_quarantined(genuine)
        # …and one good audit round trip must not un-quarantine it.
        auditor.audit(owner.oid)
        assert health.is_quarantined(genuine)

    def test_evict_quarantined_removes_flapping_replica(self, world):
        from repro.net.health import ReplicaHealthTracker

        testbed, owner, v1, published = world
        health = ReplicaHealthTracker(clock=testbed.clock, failure_threshold=3)
        auditor = make_auditor(testbed, health)
        summary = auditor.audit(owner.oid)
        genuine = summary.healthy[0].address
        for _ in range(3):
            health.record_failure(str(genuine))
        site_of = {genuine.host: "root/europe/vu"}
        # Without the flag the audit-healthy replica survives.
        auditor.audit_and_evict(owner.oid, site_of)
        assert (
            testbed.location_service.tree.addresses_at(owner.oid.hex, "root/europe/vu")
            != []
        )
        # With it, the client-earned quarantine wins over the one good
        # audit round trip.
        auditor.audit_and_evict(owner.oid, site_of, evict_quarantined=True)
        assert (
            testbed.location_service.tree.addresses_at(owner.oid.hex, "root/europe/vu")
            == []
        )
