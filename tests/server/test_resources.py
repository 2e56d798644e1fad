"""Resource limits and enforcement (§6 future work)."""

from __future__ import annotations

import random

import pytest

from repro.errors import ResourceExceeded
from repro.globedoc.element import PageElement
from repro.server.objectserver import ObjectServer
from repro.server.resources import ResourceAccountant, ResourceLimits, UNLIMITED
from repro.sim.clock import SimClock
from tests.conftest import fast_keys


class TestResourceLimits:
    def test_defaults_unlimited(self):
        limits = ResourceLimits()
        assert limits.disk_bytes == UNLIMITED
        assert limits.max_replicas == UNLIMITED

    def test_dict_roundtrip(self):
        limits = ResourceLimits(
            disk_bytes=1_000_000, max_replicas=4, bandwidth_bytes_per_sec=500_000
        )
        restored = ResourceLimits.from_dict(limits.to_dict())
        assert restored == limits

    def test_unlimited_encodes_as_none(self):
        assert ResourceLimits().to_dict()["disk_bytes"] is None
        assert ResourceLimits.from_dict({"disk_bytes": None}).disk_bytes == UNLIMITED


class TestAccountant:
    def make(self, **kwargs):
        clock = SimClock(0.0)
        return ResourceAccountant(ResourceLimits(**kwargs), clock), clock

    def test_disk_admission(self):
        acct, _ = self.make(disk_bytes=1000)
        acct.admit_replica("r1", 600)
        with pytest.raises(ResourceExceeded, match="disk"):
            acct.admit_replica("r2", 500)
        acct.admit_replica("r2", 400)
        assert acct.disk_used == 1000
        assert acct.rejections == 1

    def test_replica_cap(self):
        acct, _ = self.make(max_replicas=1)
        acct.admit_replica("r1", 10)
        with pytest.raises(ResourceExceeded, match="cap"):
            acct.admit_replica("r2", 10)

    def test_release_frees_space(self):
        acct, _ = self.make(disk_bytes=1000)
        acct.admit_replica("r1", 1000)
        acct.release_replica("r1")
        acct.admit_replica("r2", 1000)

    def test_resize(self):
        acct, _ = self.make(disk_bytes=1000)
        acct.admit_replica("r1", 800)
        acct.resize_replica("r1", 999)
        with pytest.raises(ResourceExceeded):
            acct.resize_replica("r1", 1001)
        assert acct.disk_used == 999

    def test_bandwidth_window(self):
        acct, clock = self.make(bandwidth_bytes_per_sec=100, bandwidth_window=10.0)
        acct.charge_serve(900)
        with pytest.raises(ResourceExceeded, match="bandwidth"):
            acct.charge_serve(200)  # 1100 > 100*10 budget
        clock.advance(11.0)  # window slides; budget is free again
        acct.charge_serve(900)
        assert acct.bytes_served_total == 1800

    def test_quote_shape(self):
        acct, _ = self.make(disk_bytes=1000, max_replicas=2)
        acct.admit_replica("r1", 300)
        quote = acct.quote()
        assert quote["disk_used"] == 300
        assert quote["disk_free"] == 700
        assert quote["replicas_hosted"] == 1
        assert quote["replica_slots_free"] == 1

    def test_quote_unlimited(self):
        acct, _ = self.make()
        quote = acct.quote()
        assert quote["disk_free"] is None
        assert quote["replica_slots_free"] is None

    @pytest.mark.parametrize("seed", range(5))
    def test_running_window_total_matches_brute_force(self, seed):
        """The O(1) running total is the sum over the live window at
        every step of a random serve/advance history — rejected serves
        included, which must leave it untouched."""
        window = 10.0
        acct, clock = self.make(bandwidth_bytes_per_sec=60, bandwidth_window=window)
        rng = random.Random(seed)
        history = []  # (time, bytes) of every *accepted* serve
        rejected = 0
        for _ in range(400):
            if rng.random() < 0.4:
                # Whole-second steps land serves exactly on the cutoff.
                clock.advance(rng.choice([0.0, 1.0, 2.5, window]))
            nbytes = rng.randint(1, 200)
            live = sum(b for t, b in history if t >= clock.now() - window)
            try:
                acct.charge_serve(nbytes)
            except ResourceExceeded:
                rejected += 1
                assert live + nbytes > 60 * window
            else:
                assert live + nbytes <= 60 * window
                history.append((clock.now(), nbytes))
                live += nbytes
            assert acct.bandwidth_in_use() == pytest.approx(live / window)
        assert rejected > 10 and len(history) > 10  # both paths exercised
        assert acct.rejections == rejected
        assert acct.bytes_served_total == sum(b for _, b in history)

    def test_serve_exactly_at_cutoff_still_counts(self):
        acct, clock = self.make(bandwidth_bytes_per_sec=10, bandwidth_window=10.0)
        acct.charge_serve(100)  # the whole budget, at t0
        clock.advance(10.0)  # t0 == cutoff: not yet expired
        with pytest.raises(ResourceExceeded):
            acct.charge_serve(1)
        assert acct.bandwidth_in_use() == pytest.approx(10.0)
        clock.advance(0.001)  # now strictly older than the cutoff
        acct.charge_serve(1)
        assert acct.bandwidth_in_use() == pytest.approx(0.1)

    def test_unlimited_bandwidth_still_meters_the_window(self):
        acct, clock = self.make(bandwidth_window=5.0)
        for _ in range(3):
            acct.charge_serve(50)
            clock.advance(2.0)
        # Serves at t=0, 2, 4; now t=6, cutoff t=1: the first has expired.
        assert acct.bandwidth_in_use() == pytest.approx(100 / 5.0)


class TestServerEnforcement:
    @pytest.fixture
    def limited_server(self, clock):
        return ObjectServer(
            host="small-box",
            site="root/x",
            clock=clock,
            limits=ResourceLimits(
                disk_bytes=2000, max_replicas=2,
                bandwidth_bytes_per_sec=50, bandwidth_window=10.0,
            ),
        )

    def make_doc(self, make_owner, name, size):
        owner = make_owner(name, {"blob.bin": b"x" * size})
        return owner, owner.publish(validity=3600)

    def test_disk_enforced_at_create(self, limited_server, make_owner):
        owner, doc = self.make_doc(make_owner, "vu.nl/big", 3000)
        with pytest.raises(ResourceExceeded):
            limited_server.create_replica(doc, owner.public_key, "owner")
        assert limited_server.replica_count == 0

    def test_within_limits_accepted(self, limited_server, make_owner):
        owner, doc = self.make_doc(make_owner, "vu.nl/ok", 1500)
        limited_server.create_replica(doc, owner.public_key, "owner")
        assert limited_server.resources.disk_used == 1500

    def test_destroy_frees_disk(self, limited_server, make_owner):
        owner, doc = self.make_doc(make_owner, "vu.nl/a", 1500)
        hosted = limited_server.create_replica(doc, owner.public_key, "owner")
        limited_server.destroy_replica(hosted.replica_id, owner.public_key)
        owner2, doc2 = self.make_doc(make_owner, "vu.nl/b", 1800)
        limited_server.create_replica(doc2, owner2.public_key, "owner2")

    def test_update_enforced(self, limited_server, make_owner):
        owner, doc = self.make_doc(make_owner, "vu.nl/grow", 1000)
        limited_server.create_replica(doc, owner.public_key, "owner")
        owner.put_element(PageElement("blob.bin", b"y" * 2500))
        with pytest.raises(ResourceExceeded):
            limited_server.update_replica(owner.publish(validity=3600), owner.public_key)

    def test_bandwidth_enforced_on_serve(self, limited_server, make_owner, clock):
        owner, doc = self.make_doc(make_owner, "vu.nl/pop", 400)
        hosted = limited_server.create_replica(doc, owner.public_key, "owner")
        limited_server.rpc_get_element(hosted.replica_id, "blob.bin")  # 400 B
        with pytest.raises(ResourceExceeded):
            limited_server.rpc_get_element(hosted.replica_id, "blob.bin")  # 800 > 500
        clock.advance(11.0)
        limited_server.rpc_get_element(hosted.replica_id, "blob.bin")  # window slid

    def test_quote_rpc(self, limited_server):
        quote = limited_server.rpc_quote()
        assert quote["host"] == "small-box"
        assert quote["site"] == "root/x"
        assert quote["limits"]["disk_bytes"] == 2000
