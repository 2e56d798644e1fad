"""The simulated WAN: transfer timing, compute charging, link resolution."""

from __future__ import annotations

import pytest

from repro.crypto.hashes import SHA1
from repro.errors import TransportError
from repro.net.address import Endpoint
from repro.net.simnet import COST_US, HostProfile, LinkSpec, SimNetwork
from repro.net.topology import AMSTERDAM_PRIMARY, PARIS
from repro.sim.clock import RealClock, SimClock
from repro.util.tally import TALLY


def make_net():
    net = SimNetwork(SimClock(0.0))
    net.add_host(HostProfile(name="a", site="s1", service_time=0.001))
    net.add_host(HostProfile(name="b", site="s2", service_time=0.002))
    net.add_host(
        HostProfile(name="c", site="s2", cpu_factor=10.0, memory_pressure=2.0)
    )
    net.add_link("s1", "s2", LinkSpec(latency=0.010, bandwidth=1_000_000))
    return net


class TestLinkSpec:
    def test_transfer_time(self):
        link = LinkSpec(latency=0.01, bandwidth=1_000_000)
        assert link.transfer_time(0) == pytest.approx(0.01)
        assert link.transfer_time(1_000_000) == pytest.approx(1.01)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            LinkSpec(latency=0, bandwidth=1).transfer_time(-1)


class TestTopology:
    def test_duplicate_host_rejected(self):
        net = make_net()
        with pytest.raises(TransportError):
            net.add_host(HostProfile(name="a", site="s1"))

    def test_unknown_host_rejected(self):
        with pytest.raises(TransportError):
            make_net().host("ghost")

    def test_same_host_link_is_free(self):
        link = make_net().link_between("a", "a")
        assert link.latency == 0.0
        assert link.transfer_time(10**9) == 0.0

    def test_site_level_link_resolution(self):
        net = make_net()
        assert net.link_between("a", "b").latency == pytest.approx(0.010)

    def test_same_site_default_lan(self):
        net = make_net()
        # b and c are both in s2 with no explicit LAN entry.
        assert net.link_between("b", "c").latency == pytest.approx(0.0002)

    def test_missing_link_rejected(self):
        net = SimNetwork()
        net.add_host(HostProfile(name="x", site="sx"))
        net.add_host(HostProfile(name="y", site="sy"))
        with pytest.raises(TransportError):
            net.link_between("x", "y")

    def test_default_link_fallback(self):
        net = SimNetwork()
        net.add_host(HostProfile(name="x", site="sx"))
        net.add_host(HostProfile(name="y", site="sy"))
        net.set_default_link(LinkSpec(latency=0.5, bandwidth=1000))
        assert net.link_between("x", "y").latency == 0.5


class TestRequestTiming:
    def test_request_charges_latency_bandwidth_service(self):
        net = make_net()
        net.register(Endpoint("b", "echo"), lambda f: f)
        transport = net.transport_for("a")
        frame = b"x" * 1000
        transport.request(Endpoint("b", "echo"), frame)
        # up: 0.010 + 1000/1e6; service: 0.002; down: same as up.
        expected = 2 * (0.010 + 0.001) + 0.002
        assert net.clock.now() == pytest.approx(expected)

    def test_response_size_charged(self):
        net = make_net()
        net.register(Endpoint("b", "big"), lambda f: b"y" * 1_000_000)
        transport = net.transport_for("a")
        transport.request(Endpoint("b", "big"), b"tiny")
        assert net.clock.now() > 1.0  # 1 MB at 1 MB/s dominates

    def test_stats(self):
        net = make_net()
        net.register(Endpoint("b", "echo"), lambda f: f)
        transport = net.transport_for("a")
        transport.request(Endpoint("b", "echo"), b"12345")
        assert transport.stats.requests == 1
        assert transport.stats.bytes_sent == 5
        assert transport.stats.bytes_received == 5

    def test_unregistered_endpoint_rejected(self):
        net = make_net()
        with pytest.raises(TransportError):
            net.transport_for("a").request(Endpoint("b", "ghost"), b"")


class TestCompute:
    """Compute is modelled: a region is charged what it counted, at the
    table's price, scaled by its host's factors — never wall time."""

    @pytest.fixture
    def paper_net(self):
        net = SimNetwork(SimClock(0.0))
        for profile in (AMSTERDAM_PRIMARY, PARIS):
            net.add_host(profile)
        return net

    @staticmethod
    def verify_and_hash(keys):
        keys.public.verify(keys.sign(b"payload"), b"payload")
        SHA1.digest(b"x" * 1024)

    def test_charge_scales_with_profile(self, paper_net, shared_keys):
        """One 1024-bit verify and 1 KiB hashed in a canardo region cost
        (region + verify + SHA-1 per KiB) × 20 (CPU) × 2.5 (pressure)."""
        signature = shared_keys.sign(b"payload")
        with paper_net.host(PARIS.name).compute():
            shared_keys.public.verify(signature, b"payload")
            SHA1.digest(b"x" * 1024)
        modern_us = (
            COST_US["region"] + COST_US["rsa.verify", 1024] + 1024 * COST_US["hashed"]
        )
        assert paper_net.clock.now() == pytest.approx(modern_us * 1e-6 * 20 * 2.5)

    def test_native_compute_skips_pressure(self, paper_net, shared_keys):
        host = paper_net.host(PARIS.name)
        signature = shared_keys.sign(b"payload")
        with host.compute():
            shared_keys.public.verify(signature, b"payload")
        full = paper_net.clock.now()
        with host.compute(native=True):
            shared_keys.public.verify(signature, b"payload")
        assert paper_net.clock.now() - full == pytest.approx(full / 2.5)

    def test_nested_region_is_charged_once_to_its_host(self, paper_net, shared_keys):
        """A server handler's region inside a client's region: the
        server's work is the server's, and the client pays for none of it."""
        client, server = paper_net.host(PARIS.name), paper_net.host(AMSTERDAM_PRIMARY.name)
        signature = shared_keys.sign(b"payload")
        with client.compute():
            before = paper_net.clock.now()
            with server.compute():
                shared_keys.public.verify(signature, b"payload")
            server_charge = paper_net.clock.now() - before
        client_charge = paper_net.clock.now() - before - server_charge
        region = COST_US["region"] * 1e-6
        assert server_charge == pytest.approx(
            (region + COST_US["rsa.verify", 1024] * 1e-6) * 20
        )
        assert client_charge == pytest.approx(region * 20 * 2.5)

    def test_work_outside_any_region_is_free(self, paper_net, shared_keys):
        self.verify_and_hash(shared_keys)
        assert paper_net.clock.now() == 0.0

    def test_plain_clocks_charge_nothing(self, shared_keys):
        clock = SimClock(5.0)
        with clock.compute(), clock.compute(native=True):
            self.verify_and_hash(shared_keys)
        assert clock.now() == 5.0
        # RealClock hands out the same shared no-op region.
        assert RealClock().compute() is clock.compute(native=True)

    def test_unpriced_key_size_is_an_error(self, paper_net):
        with pytest.raises(KeyError, match="4096"):
            with paper_net.host(PARIS.name).compute():
                TALLY["rsa.verify", 4096] += 1  # as if a 4096-bit verify ran
        del TALLY["rsa.verify", 4096]

    def test_host_is_the_shared_clock(self, paper_net):
        host = paper_net.host(PARIS.name)
        host.advance(2.0)
        assert host.now() == paper_net.clock.now() == 2.0
        assert paper_net.host(AMSTERDAM_PRIMARY.name).now() == 2.0

    def test_profile_compute_scale(self):
        profile = HostProfile(name="x", site="s", cpu_factor=3.0, memory_pressure=2.0)
        assert profile.compute_scale == 6.0


class TestRequestMany:
    def test_batch_charges_max_not_sum(self):
        net = make_net()
        net.register(Endpoint("b", "echo"), lambda f: f)
        transport = net.transport_for("a")
        clock = net.clock

        start = clock.now()
        transport.request(Endpoint("b", "echo"), b"x" * 100)
        single = clock.now() - start

        start = clock.now()
        results = transport.request_many(
            [(Endpoint("b", "echo"), b"x" * 100) for _ in range(5)]
        )
        batch = clock.now() - start

        assert [bytes(r) for r in results] == [b"x" * 100] * 5
        # Identical requests overlap perfectly: the wave costs one
        # request's time, not five.
        assert batch == pytest.approx(single)

    def test_batch_cost_is_slowest_member(self):
        net = make_net()
        net.register(Endpoint("b", "small"), lambda f: b"s")
        net.register(Endpoint("b", "large"), lambda f: b"L" * 500_000)
        transport = net.transport_for("a")
        clock = net.clock

        start = clock.now()
        transport.request(Endpoint("b", "large"), b"q")
        slowest = clock.now() - start

        start = clock.now()
        transport.request_many(
            [(Endpoint("b", "small"), b"q"), (Endpoint("b", "large"), b"q")]
        )
        assert clock.now() - start == pytest.approx(slowest)

    def test_failed_slot_holds_exception(self):
        net = make_net()
        net.register(Endpoint("b", "echo"), lambda f: f)
        transport = net.transport_for("a")
        results = transport.request_many(
            [
                (Endpoint("b", "echo"), b"ok"),
                (Endpoint("b", "ghost"), b"dead"),
                (Endpoint("b", "echo"), b"also ok"),
            ]
        )
        assert results[0] == b"ok"
        assert isinstance(results[1], TransportError)
        assert results[2] == b"also ok"

    def test_empty_batch(self):
        net = make_net()
        assert net.transport_for("a").request_many([]) == []
