"""The pipelined batch is the sequential loop, per URL.

``proxy.handle_many`` prefetches a batch in waves and then replays the
unchanged ``proxy.handle``, so for any batch it must answer every URL
exactly as a fresh sequential proxy answers it alone: same status, same
bytes, same rejecting check. The batches are drawn from a pool that
mixes several objects, name and OID URLs, an unknown name and an
unknown OID, a tampered element, a missing element, plain HTTP and URLs
that do not parse, with duplicates — on the simulated WAN and over real
sockets.

The same holds for retries: on a retrying stack whose transport drops
every frame of one op, a batch of distinct URLs costs handle_many the
retries, the backoff and the replica-health records that handle costs,
and its only extra wire attempts are the prefetches.
"""

from __future__ import annotations

from contextlib import ExitStack

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.deployment import ZONE_PATHS, Deployment
from repro.errors import TransportError
from repro.globedoc.oid import ObjectId
from repro.globedoc.urls import HybridUrl
from repro.naming.zone import ZoneKeys
from repro.net.health import ReplicaHealthTracker
from repro.net.message import BATCH_OP, Request
from repro.net.retry import RetryPolicy
from repro.net.tcpnet import TcpEndpointServer, TcpTransport
from repro.net.topology import paper_testbed
from repro.proxy.pipeline import PipelineConfig
from repro.sim.clock import RealClock, SimClock
from tests.answerfuzz import budget
from tests.conftest import fast_keys

HOST, CLIENT, SITE = "ginger.cs.vu.nl", "canardo.inria.fr", "root/europe/vu"
ELEMENTS = {"index.html": b"<html>page</html>", "logo.bin": bytes(range(256))}
NAMES = ("vu.nl/alpha", "vu.nl/beta", "vu.nl/gamma")
TAMPERED = "vu.nl/gamma"  # its index.html is rewritten at the replica


@pytest.fixture(scope="module", params=["sim", "tcp"])
def world(request):
    """A deployment on the paper's WAN or on loopback TCP with three
    published objects, and the pool of URLs batches are drawn from."""
    zone_keys = {zone: ZoneKeys(zone, fast_keys()) for zone in ZONE_PATHS}
    with ExitStack() as cleanup:
        if request.param == "sim":
            network = paper_testbed(SimClock(1000.0)).network
            fabric = network.clock, network.register, network.transport_for
        else:
            listener = cleanup.enter_context(TcpEndpointServer())
            tcp = TcpTransport(directory={HOST: listener.address})
            cleanup.callback(tcp.close)
            fabric = (
                RealClock(),
                lambda endpoint, handler: listener.register(endpoint.service, handler),
                lambda host: tcp,
            )
        deployment = Deployment(*fabric, HOST, {HOST: SITE, CLIENT: SITE}, zone_keys=zone_keys)
        pool = [
            "http://ginger.cs.vu.nl/ghost",
            "ftp://weird",
            "globe://",
            "globe://oid/zz/index.html",
            HybridUrl.for_name("vu.nl/ghost", "index.html").raw,
            HybridUrl.for_oid(ObjectId.from_public_key(fast_keys().public), "index.html").raw,
        ]
        for name in NAMES:
            published = deployment.publish(deployment.document_owner(name, ELEMENTS))
            for element in (*ELEMENTS, "missing.html"):
                pool.append(published.url(element))
                pool.append(HybridUrl.for_oid(published.owner.oid, element).raw)
            if name == TAMPERED:
                server = deployment.object_server
                state = server.replica_for_oid(published.oid_hex).lr.state
                state.elements["index.html"] = state.elements["index.html"].with_content(b"x")
        yield deployment, pool


def seen(response):
    return response.status, response.content, response.security_failure


@given(data=st.data())
@budget
def test_handle_many_is_handle_per_url(world, data):
    deployment, pool = world
    urls = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
    sequential = deployment.client_stack(CLIENT).proxy
    pipelined = deployment.client_stack(CLIENT, pipeline=PipelineConfig()).proxy
    expected = [seen(sequential.handle(url)) for url in urls]
    assert [seen(response) for response in pipelined.handle_many(urls)] == expected


def test_the_pool_covers_every_outcome(world):
    """The pool reaches a 200, the tampered 403, a 404, the passthrough
    502 and the unparsable 400."""
    deployment, pool = world
    proxy = deployment.client_stack(CLIENT).proxy
    statuses = {proxy.handle(url).status for url in pool}
    assert statuses == {200, 400, 403, 404, 502}


#: The ops a cold access sends — on the Fig. 3 walk or bundled in one
#: ``globedoc.bind`` — one of which a drawn transport drops.
FAILING_OPS = (
    "naming.resolve",
    "location.lookup",
    "globedoc.get_public_key",
    "globedoc.get_integrity_certificate",
    "globedoc.get_element",
    "globedoc.bind",
)


class DropOp:
    """A client transport that drops every frame carrying *op*, batch
    frames included, and counts the calls it carries: all of them, and
    those that came in a pipelined exchange (the prefetch waves)."""

    def __init__(self, inner, op: str) -> None:
        self.inner, self.op = inner, op
        self.calls = self.prefetched = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def _carry(self, frame: bytes) -> bool:
        """Count *frame*'s calls; True when it must be dropped."""
        request = Request.from_bytes(frame)
        if request.op == BATCH_OP:
            ops = [op for op, _args, _error in request.batch_calls()]
        else:
            ops = [request.op]
        self.calls += len(ops)
        return self.op in ops

    def request(self, endpoint, frame: bytes) -> bytes:
        if self._carry(frame):
            raise TransportError(f"dropped {self.op}")
        return self.inner.request(endpoint, frame)

    def request_many(self, frames):
        before = self.calls
        dropped = [self._carry(frame) for _endpoint, frame in frames]
        self.prefetched += self.calls - before
        sent = [pair for pair, drop in zip(frames, dropped) if not drop]
        answers = iter(self.inner.request_many(sent))
        error = TransportError(f"dropped {self.op}")
        return [error if drop else next(answers) for drop in dropped]


def retrying_stack(deployment, op: str, pipelined: bool):
    """A retrying client stack with its own health tracker, behind a
    transport that drops *op*; backoff sleeps for real over TCP."""
    tcp = isinstance(deployment.clock, RealClock)
    transport = DropOp(deployment.transport_for(CLIENT), op)
    health = ReplicaHealthTracker(clock=deployment.clock)
    stack = deployment.client_stack(
        CLIENT,
        transport=transport,
        retry_policy=RetryPolicy(
            max_attempts=3, base_delay=0.0005 if tcp else 0.05, jitter=0.0
        ),
        health=health,
        pipeline=PipelineConfig() if pipelined else None,
    )
    return stack, transport, health


def health_records(health) -> dict:
    return {
        address: (record.total_failures, record.total_successes)
        for address, record in health._records.items()
    }


@given(data=st.data())
@budget
def test_handle_many_retries_as_handle(world, data):
    deployment, pool = world
    op = data.draw(st.sampled_from(FAILING_OPS))
    urls = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6, unique=True))
    sequential, sequential_wire, sequential_health = retrying_stack(deployment, op, False)
    pipelined, pipelined_wire, pipelined_health = retrying_stack(deployment, op, True)

    expected = [seen(sequential.proxy.handle(url)) for url in urls]
    assert [seen(response) for response in pipelined.proxy.handle_many(urls)] == expected
    assert pipelined.rpc.counters.retries == sequential.rpc.counters.retries
    assert pipelined.rpc.counters.backoff_seconds == pytest.approx(
        sequential.rpc.counters.backoff_seconds
    )
    assert health_records(pipelined_health) == health_records(sequential_health)
    assert pipelined_wire.calls <= sequential_wire.calls + pipelined_wire.prefetched
