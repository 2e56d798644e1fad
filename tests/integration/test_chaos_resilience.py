"""Chaos resilience: with genuine replicas available, the resilient
stack turns faults into retries and failovers — every completed fetch
is verified-genuine, and transport faults never escape to the user
while an alternative replica remains (§3.1.2's bound, plus the
availability the resilience layer buys back)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.mitm import MitmTransport
from repro.errors import TransportError
from repro.globedoc.element import PageElement
from repro.globedoc.owner import DocumentOwner
from repro.harness.experiment import SERVICES_HOST, Testbed
from repro.net.address import Endpoint
from repro.net.faults import FaultPlan, FlakyTransport
from repro.net.health import ReplicaHealthTracker
from repro.net.message import Response
from repro.net.retry import RetryPolicy
from repro.obs import RingBufferSink, Tracer
from repro.sim.random import derive_seed
from tests.conftest import fast_keys

GENUINE = b"<html>the one chaotic truth</html>"
#: 64 KiB holding every byte value: almost all of its answer frame is a
#: raw attachment, where a flipped byte still decodes as *some* content.
BINARY = bytes(range(256)) * 256
CLIENT_HOST = "sporty.cs.vu.nl"

EXTRA_SITES = (
    ("root/europe/inria", "canardo.inria.fr"),
    ("root/us/cornell", "ensamble02.cornell.edu"),
)


def build_world():
    """A testbed with the document on the primary plus two more sites."""
    testbed = Testbed()
    owner = DocumentOwner("vu.nl/chaotic", keys=fast_keys(), clock=testbed.clock)
    owner.put_element(PageElement("index.html", GENUINE))
    owner.put_element(PageElement("blob.bin", BINARY))
    published = testbed.publish(owner, validity=7 * 24 * 3600.0)
    for site, host in EXTRA_SITES:
        testbed.add_replica(published, host, site)
    return testbed, published


@pytest.fixture(scope="module")
def world():
    return build_world()


def resilient_stack(
    testbed, drop: float, corrupt: float = 0.0, seed: int = 0, ring=None
):
    """The resilient client stack; its spans land in *ring* when given."""
    plan = FaultPlan(
        drop_probability=drop,
        corrupt_probability=corrupt,
        seed=derive_seed(seed, "chaos-itest", int(drop * 100), int(corrupt * 100)),
    )
    flaky = FlakyTransport(testbed.network.transport_for(CLIENT_HOST), plan)
    health = ReplicaHealthTracker(
        clock=testbed.clock, failure_threshold=3, quarantine_seconds=600.0
    )
    policy = RetryPolicy(
        max_attempts=5,
        base_delay=0.02,
        multiplier=2.0,
        max_delay=0.5,
        jitter=0.1,
        seed=derive_seed(seed, "chaos-itest-retry"),
    )
    tracer = Tracer(clock=testbed.clock, sinks=(ring,)) if ring is not None else None
    stack = testbed.client_stack(
        CLIENT_HOST, transport=flaky, retry_policy=policy, health=health, tracer=tracer
    )
    return stack, flaky, health


class TestDroppedRequests:
    @pytest.mark.parametrize("drop", [0.1, 0.2, 0.3])
    def test_no_transport_error_escapes_while_replicas_remain(self, world, drop):
        """Three healthy replicas, drop rates up to 0.3: retries plus
        failover absorb every fault, and what is served is genuine."""
        testbed, published = world
        stack, flaky, _ = resilient_stack(testbed, drop=drop)
        url = published.url("index.html")
        for i in range(24):
            if i % 6 == 0:
                stack.proxy.drop_all_sessions()  # exercise cold binds too
            response = stack.proxy.handle(url)
            assert response.ok, f"request {i} failed at drop={drop}: {response.status}"
            assert response.content == GENUINE
        assert flaky.drops > 0  # faults actually fired

    def test_retry_work_lands_in_access_metrics(self, world):
        testbed, published = world
        ring = RingBufferSink(capacity=1 << 16)
        stack, flaky, _ = resilient_stack(testbed, drop=0.3, seed=2, ring=ring)
        url = published.url("index.html")
        for i in range(24):
            if i % 6 == 0:
                stack.proxy.drop_all_sessions()
            assert stack.proxy.handle(url).ok
        assert flaky.drops > 0
        # Every drop hit an idempotent read and every access succeeded,
        # so every drop was retried...
        assert stack.rpc.counters.retries == flaky.drops
        assert stack.rpc.counters.giveups == 0
        # ...and each retry is visible in the access's own trace: a
        # failed ``rpc.attempt`` carrying its backoff, under the
        # ``proxy.handle`` it delayed.
        retried = [
            span for span in ring.named("rpc.attempt")
            if "backoff_s" in span.attributes
        ]
        assert len(retried) == flaky.drops
        assert all(span.is_error for span in retried)
        roots = {span.trace_id for span in ring.named("proxy.handle")}
        assert {span.trace_id for span in retried} <= roots
        assert sum(span.attributes["backoff_s"] for span in retried) == pytest.approx(
            stack.rpc.counters.backoff_seconds
        )


def _flip(frame: bytes, offset: int, mask: int) -> bytes:
    flipped = bytearray(frame)
    flipped[offset] ^= mask
    return bytes(flipped)


class TestCorruptedFrames:
    """Link noise costs a retry, a lying replica costs a 403 — by the
    frame's checksum, not by where in the frame the noise fell."""

    @pytest.mark.parametrize("element, genuine", [("index.html", GENUINE), ("blob.bin", BINARY)])
    def test_corruption_costs_retries_never_integrity(self, world, element, genuine):
        testbed, published = world
        stack, flaky, _ = resilient_stack(testbed, drop=0.0, corrupt=0.25, seed=3)
        url = published.url(element)
        for i in range(20):
            if i % 5 == 0:
                stack.proxy.drop_all_sessions()
            response = stack.proxy.handle(url)
            assert response.status == 200, response.security_failure
            assert response.content == genuine
        assert flaky.corruptions > 0
        assert stack.rpc.counters.retries >= flaky.corruptions

    @pytest.fixture(scope="class")
    def answer(self, world) -> bytes:
        """The genuine ``globedoc.get_element`` answer for the blob, as
        it crossed the wire during one access."""
        testbed, published = world
        crossed = []
        tap = MitmTransport(
            testbed.network.transport_for(CLIENT_HOST),
            lambda endpoint, frame: crossed.append(frame) or frame,
        )
        stack = testbed.client_stack(CLIENT_HOST, transport=tap)
        assert stack.proxy.handle(published.url("blob.bin")).content == BINARY
        (frame,) = [f for f in crossed if BINARY in f]  # raw, so findable
        return frame

    def test_a_flip_in_header_or_trailer_is_a_transport_error(self, answer):
        attachments = 4 + int.from_bytes(answer[:4], "big")
        for offset in [*range(attachments), *range(len(answer) - 4, len(answer))]:
            for mask in (0x01, 0x80, 0xFF):
                with pytest.raises(TransportError):
                    Response.from_bytes(_flip(answer, offset, mask))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_a_flip_in_an_attachment_is_a_transport_error(self, answer, data):
        offset = data.draw(st.integers(0, len(answer) - 1))
        mask = data.draw(st.integers(1, 255))
        with pytest.raises(TransportError):
            Response.from_bytes(_flip(answer, offset, mask))

    def test_a_rewritten_frame_is_still_a_security_rejection(self, world):
        """An attacker re-encodes, so the checksum of what they send is
        valid: the same one-byte change is then the hash check's to catch."""
        testbed, published = world

        def rewrite(endpoint, frame):
            answer = Response.from_bytes(frame)
            if not (answer.ok and isinstance(answer.value, dict) and "content" in answer.value):
                return frame
            tampered = _flip(answer.value["content"], 12345, 0xFF)
            return Response.success({**answer.value, "content": tampered}).to_bytes()

        mitm = MitmTransport(testbed.network.transport_for(CLIENT_HOST), rewrite)
        stack = testbed.client_stack(CLIENT_HOST, transport=mitm)
        response = stack.proxy.handle(published.url("blob.bin"))
        assert mitm.intercepted > 0
        assert (response.status, response.security_failure) == (403, "AuthenticityError")


class TestReplicaCrash:
    def test_primary_crash_fails_over_and_quarantines(self):
        """Kill the primary mid-run with the location service none the
        wiser: client-side failover keeps serving genuine bytes from
        the surviving sites, and the breaker opens on the dead address."""
        testbed, published = build_world()  # private world: we break it
        ring = RingBufferSink()
        stack, _, health = resilient_stack(testbed, drop=0.0, ring=ring)
        url = published.url("index.html")
        for _ in range(3):
            assert stack.proxy.handle(url).ok
        primary = Endpoint(SERVICES_HOST, "objectserver")
        testbed.network.unregister(primary)
        for i in range(6):
            if i == 3:
                stack.proxy.drop_all_sessions()  # cold bind against the corpse
            response = stack.proxy.handle(url)
            assert response.ok
            assert response.content == GENUINE
        failovers = [
            span for span in ring.named("session.failover") if not span.is_error
        ]
        assert len(failovers) > 0
        dead = testbed.object_server.contact_address(published.oid_hex)
        assert health.is_quarantined(str(dead))
