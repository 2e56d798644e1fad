"""A replica that misuses the wire pipeline gains nothing.

``TcpTransport.request_many`` writes a window of requests down one
connection and takes the replies in request order: reply *i* is believed
to answer request *i* only because of where it arrived. A hostile
replica can therefore hand the proxy another request's answer — or one
answer too few — without forging a byte. The ROADMAP invariant (*no
unverified byte is ever served*) must hold regardless: every response of
a pipelined page is the owner's bytes for *that* element, or a typed
rejection, and nothing escapes ``handle_many`` as an exception.

The peer here hosts the real services of a real published document and
misbehaves only in how it returns a multi-frame window's replies.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.deployment import ZONE_PATHS, Deployment
from repro.naming.zone import ZoneKeys
from repro.net.tcpnet import TcpTransport
from repro.proxy.pipeline import PipelineConfig
from repro.sim.clock import RealClock
from tests.conftest import fast_keys
from tests.net.rawpeer import RawPeer, read_window, write_frame

HOST, CLIENT, SITE = "replica-host", "client-host", "root/local"
ELEMENTS = {f"part{i}.html": b"<p>owner's part %d</p>" % i for i in range(6)}


def reversed_order(replies):
    return replies[::-1]


def one_too_few(replies):
    return replies[:-1]


@pytest.fixture(scope="module")
def zone_keys():
    return {zone: ZoneKeys(zone, fast_keys()) for zone in ZONE_PATHS}


@contextmanager
def misbehaving_world(misuse, zone_keys):
    """A deployment whose every service sits behind one raw peer that
    answers single requests honestly and passes each wider window's
    replies through *misuse* before sending them."""
    handlers = {}

    def serve(conn, number):
        while True:
            window = read_window(conn)
            if not window:
                return
            replies = []
            for frame in window:
                service, _, request = frame.partition(b"\x00")
                replies.append(handlers[service.decode()](request))
            for reply in misuse(replies) if len(replies) > 1 else replies:
                write_frame(conn, reply)

    with RawPeer(serve) as peer:
        transport = TcpTransport(directory={HOST: peer.address}, timeout=0.5)
        try:
            yield peer, Deployment(
                RealClock(),
                lambda endpoint, handler: handlers.__setitem__(endpoint.service, handler),
                lambda host: transport,
                HOST,
                {HOST: SITE, CLIENT: SITE},
                zone_keys=zone_keys,
            )
        finally:
            transport.close()


@pytest.mark.parametrize("misuse", [reversed_order, one_too_few])
def test_misordered_or_missing_replies_are_never_served(misuse, zone_keys):
    with misbehaving_world(misuse, zone_keys) as (peer, world):
        published = world.publish(world.document_owner("vu.nl/misuse", ELEMENTS))
        proxy = world.client_stack(CLIENT, pipeline=PipelineConfig()).proxy
        names = list(ELEMENTS)
        responses = proxy.handle_many([published.url(name) for name in names])

    assert len(responses) == len(names)
    rejected = 0
    for name, response in zip(names, responses):
        if response.status == 200:
            assert response.content == ELEMENTS[name], name
            continue
        rejected += 1
        # A typed rejection: a named security failure, or the
        # unreachable-replica answer — never another element's bytes.
        assert (response.status == 403 and response.security_failure) or (
            response.status == 404
        ), (name, response.status)
        for other in ELEMENTS.values():
            assert other not in response.content
    # The misuse reached the proxy and cost availability at most, not
    # integrity: swapped answers are rejected by the checks; a missing
    # one times out, its connection is dropped (a late reply could
    # answer the wrong request) and the element is fetched again.
    if misuse is reversed_order:
        assert rejected
    else:
        assert peer.accepts > 1
