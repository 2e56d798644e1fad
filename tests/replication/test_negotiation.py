"""Hosting negotiation (§6): requirements vs quotes, coordinated placement."""

from __future__ import annotations

import pytest

from repro.errors import ReplicationError
from repro.replication.negotiation import (
    QosRequirements,
    choose_site,
    evaluate_offer,
)


def quote(site="root/a", host="h-a", disk_free=10_000, slots_free=2,
          bandwidth_limit=None, bandwidth_in_use=0.0):
    return {
        "site": site,
        "host": host,
        "limits": {"bandwidth_bytes_per_sec": bandwidth_limit},
        "disk_used": 0,
        "disk_free": disk_free,
        "replicas_hosted": 0,
        "replica_slots_free": slots_free,
        "bandwidth_in_use": bandwidth_in_use,
    }


class TestEvaluateOffer:
    def test_acceptable(self):
        result = evaluate_offer(QosRequirements(disk_bytes=1000), quote())
        assert result.acceptable
        assert result.reasons == ()
        assert result.score == 10_000

    def test_disk_shortage(self):
        result = evaluate_offer(QosRequirements(disk_bytes=20_000), quote())
        assert not result.acceptable
        assert any("disk" in r for r in result.reasons)

    def test_no_slots(self):
        result = evaluate_offer(QosRequirements(), quote(slots_free=0))
        assert not result.acceptable
        assert any("slots" in r for r in result.reasons)

    def test_unlimited_server_accepts(self):
        unlimited = quote(disk_free=None, slots_free=None)
        result = evaluate_offer(QosRequirements(disk_bytes=10**12), unlimited)
        assert result.acceptable

    def test_bandwidth_headroom(self):
        offer = quote(bandwidth_limit=1000.0, bandwidth_in_use=900.0)
        ok = evaluate_offer(
            QosRequirements(min_bandwidth_bytes_per_sec=50.0), offer
        )
        assert ok.acceptable
        too_much = evaluate_offer(
            QosRequirements(min_bandwidth_bytes_per_sec=200.0), offer
        )
        assert not too_much.acceptable

    def test_site_constraints(self):
        req = QosRequirements(required_sites=("root/b",))
        assert not evaluate_offer(req, quote(site="root/a")).acceptable
        assert evaluate_offer(req, quote(site="root/b")).acceptable
        forbidden = QosRequirements(forbidden_sites=("root/a",))
        assert not evaluate_offer(forbidden, quote(site="root/a")).acceptable

    def test_multiple_reasons_accumulate(self):
        result = evaluate_offer(
            QosRequirements(disk_bytes=10**9, required_sites=("root/z",)),
            quote(slots_free=0),
        )
        assert len(result.reasons) == 3

    def test_requirements_roundtrip(self):
        req = QosRequirements(
            disk_bytes=5, min_bandwidth_bytes_per_sec=10.0,
            required_sites=("a",), forbidden_sites=("b",),
        )
        assert QosRequirements.from_dict(req.to_dict()) == req


class TestChooseSite:
    def test_picks_most_headroom(self):
        quotes = [
            quote(site="root/a", disk_free=1_000),
            quote(site="root/b", disk_free=9_000),
        ]
        chosen = choose_site(QosRequirements(disk_bytes=500), quotes)
        assert chosen.site == "root/b"

    def test_skips_unacceptable(self):
        quotes = [
            quote(site="root/a", disk_free=100),
            quote(site="root/b", disk_free=9_000),
        ]
        chosen = choose_site(QosRequirements(disk_bytes=500), quotes)
        assert chosen.site == "root/b"

    def test_no_offer_raises_with_reasons(self):
        quotes = [quote(site="root/a", disk_free=100)]
        with pytest.raises(ReplicationError, match="root/a"):
            choose_site(QosRequirements(disk_bytes=500), quotes)

    def test_empty_quotes(self):
        with pytest.raises(ReplicationError):
            choose_site(QosRequirements(), [])


class TestNegotiatedPlacement:
    """End to end: coordinator asks servers for quotes, places on the
    best acceptable one, is refused by full servers."""

    @pytest.fixture
    def world(self, clock, make_owner):
        from repro.harness.experiment import Testbed
        from repro.replication.strategies import NoReplication
        from repro.server.objectserver import ObjectServer
        from repro.server.resources import ResourceLimits

        testbed = Testbed()
        owner = make_owner("vu.nl/doc", {"index.html": b"x" * 4000})
        # Re-key the owner's clock to the testbed's.
        owner.clock = testbed.clock
        document = owner.publish(validity=3600)

        servers = {"root/europe/vu": testbed.object_server}  # home, unlimited
        for site, host, disk_bytes in (
            ("root/europe/inria", "canardo.inria.fr", 1000),
            ("root/us/cornell", "ensamble02.cornell.edu", 100_000),
        ):
            servers[site] = testbed.servers[host] = ObjectServer(
                host=host, site=site, clock=testbed.clock,
                limits=ResourceLimits(disk_bytes=disk_bytes),
            )
            testbed.network.register(
                servers[site].endpoint, servers[site].rpc_server().handle_frame
            )
        for server in servers.values():
            server.keystore.authorize("owner", owner.public_key)
        coordinator = testbed.coordinator(owner)
        coordinator.manage(owner, document, NoReplication(), home_site="root/europe/vu")
        return testbed, owner, document, servers, coordinator

    def test_negotiation_picks_server_with_capacity(self, world):
        testbed, owner, document, servers, coordinator = world
        agreement = coordinator.negotiate_placement(owner.oid, __req__())
        # The 4 KB document does not fit INRIA's 1 KB limit.
        assert agreement.site == "root/us/cornell"
        assert servers["root/us/cornell"].hosts_oid(owner.oid.hex)
        assert not servers["root/europe/inria"].hosts_oid(owner.oid.hex)

    def test_negotiation_respects_forbidden_sites(self, world):
        testbed, owner, document, servers, coordinator = world
        with pytest.raises(ReplicationError):
            coordinator.negotiate_placement(
                owner.oid, __req__(forbidden_sites=("root/us/cornell",))
            )

    def test_disk_requirement_autofilled(self, world):
        """disk_bytes defaults to the document size when unset."""
        testbed, owner, document, servers, coordinator = world
        agreement = coordinator.negotiate_placement(owner.oid, __req__())
        assert agreement.requirements.disk_bytes == document.total_size


def __req__(**kwargs):
    from repro.replication.negotiation import QosRequirements

    return QosRequirements(**kwargs)
