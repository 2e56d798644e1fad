"""A replica that misuses the wire pipeline gains nothing.

``TcpTransport.request_many`` writes a window of frames down one
connection and takes the replies in frame order, and a batch answer's
slots are taken in call order: reply *i* is believed to answer frame
*i*, and slot *j* call *j*, only because of where they arrived. A
hostile replica can therefore hand the proxy another request's answer —
or one answer too few, or too many — without forging a byte. The
ROADMAP invariant (*no unverified byte is ever served*) must hold
regardless: every response of a pipelined page is the owner's bytes for
*that* element, or a typed rejection, and nothing escapes
``handle_many`` as an exception.

The peer here hosts the real services of real published documents and
misbehaves only in how it returns a multi-frame window's replies, or a
batch frame's slots.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.attacks.malicious_server import HonestBehavior, MaliciousReplica
from repro.deployment import ZONE_PATHS, Deployment
from repro.globedoc.urls import HybridUrl
from repro.naming.records import OidRecord
from repro.naming.zone import ZoneKeys
from repro.net.message import BATCH_OP, Request, Response
from repro.net.tcpnet import TcpTransport
from repro.proxy.pipeline import PipelineConfig
from repro.sim.clock import RealClock
from tests.conftest import fast_keys
from tests.net.rawpeer import RawPeer, read_window, write_frame

HOST, CLIENT, SITE = "replica-host", "client-host", "root/local"
ELEMENTS = {f"part{i}.html": b"<p>owner's part %d</p>" % i for i in range(6)}
#: Two documents with the same element names and different bytes: a
#: reply handed to the other document's request would be well-formed.
PAGES = {
    name: {f"part{i}.html": b"<p>%s part %d</p>" % (name.encode(), i) for i in range(2)}
    for name in ("vu.nl/front", "vu.nl/mirrored")
}


def reversed_order(items):
    return items[::-1]


def one_too_few(items):
    return items[:-1]


def one_too_many(items):
    return items + items[-1:]


@pytest.fixture(scope="module")
def zone_keys():
    return {zone: ZoneKeys(zone, fast_keys()) for zone in ZONE_PATHS}


@contextmanager
def misbehaving_world(zone_keys, frames=None, slots=None):
    """A deployment whose every service sits behind one raw peer that
    answers honestly, except that it passes each multi-frame window's
    replies through *frames* and each batch answer's slots through
    *slots*. Yields the peer, the deployment and the services whose
    answers were misused, one entry per misuse."""
    handlers = {}
    misused = []

    def answer(frame):
        service, _, request = frame.partition(b"\x00")
        reply = handlers[service.decode()](request)
        if slots is None or Request.from_bytes(request).op != BATCH_OP:
            return reply
        misused.append(service.decode())
        return Response.success(slots(Response.from_bytes(reply).value)).to_bytes()

    def serve(conn, number):
        while True:
            window = read_window(conn)
            if not window:
                return
            replies = [answer(frame) for frame in window]
            if frames is not None and len(replies) > 1:
                misused.extend(frame.partition(b"\x00")[0].decode() for frame in window)
                replies = frames(replies)
            for reply in replies:
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
            ), misused
        finally:
            transport.close()


def publish_on_mirror(world, name, elements):
    """Publish *name* on its own service of the host, ``mirror``: its
    fetches then travel as a second frame of the fetch window."""
    owner = world.document_owner(name, elements)
    replica = MaliciousReplica(
        HOST, owner.publish(), HonestBehavior(), service="mirror", replica_id="mirror"
    )
    world.install_replica(replica, owner.oid.hex)
    world.naming.register(OidRecord(name=owner.name, oid=owner.oid))


def count_rejections(urls, expected, responses) -> int:
    """Hold each response to the invariant; the number rejected."""
    assert len(responses) == len(urls)
    rejected = 0
    for url, want, response in zip(urls, expected, responses):
        if response.status == 200:
            assert response.content == want, url
            continue
        rejected += 1
        # A typed rejection: a named security failure, or the
        # unreachable-replica answer — never another element's bytes.
        assert (response.status == 403 and response.security_failure) or (
            response.status == 404
        ), (url, response.status)
        for page in (ELEMENTS, *PAGES.values()):
            for other in page.values():
                assert other not in response.content
    return rejected


@pytest.mark.parametrize("misuse", [reversed_order, one_too_few])
def test_misordered_or_missing_replies_are_never_served(misuse, zone_keys):
    with misbehaving_world(zone_keys, frames=misuse) as (peer, world, misused):
        front, mirrored = PAGES
        world.publish(world.document_owner(front, PAGES[front]))
        publish_on_mirror(world, mirrored, PAGES[mirrored])
        urls, expected = [], []
        for name, elements in PAGES.items():
            for element, content in elements.items():
                urls.append(HybridUrl.for_name(name, element).raw)
                expected.append(content)
        proxy = world.client_stack(CLIENT, pipeline=PipelineConfig()).proxy
        responses = proxy.handle_many(urls)

    # The fetch window held one batch frame per service of the host.
    assert misused == ["objectserver", "mirror"]
    rejected = count_rejections(urls, expected, responses)
    # The misuse reached the proxy and cost availability at most, not
    # integrity: each document's answers, handed to the other, carry the
    # wrong key for its OID and are rejected by the checks; a missing
    # one times out, its connection is dropped (a late reply could
    # answer the wrong request) and the calls are fetched again.
    if misuse is reversed_order:
        assert rejected
    else:
        assert peer.accepts > 1


@pytest.mark.parametrize("misuse", [reversed_order, one_too_few, one_too_many])
def test_misplaced_slots_are_never_served(misuse, zone_keys):
    with misbehaving_world(zone_keys, slots=misuse) as (peer, world, misused):
        published = world.publish(world.document_owner("vu.nl/slots", ELEMENTS))
        urls = [published.url(name) for name in ELEMENTS]
        proxy = world.client_stack(CLIENT, pipeline=PipelineConfig()).proxy
        responses = proxy.handle_many(urls)

    # The fetch wave — key, certificate, six elements — is one frame.
    assert misused == ["objectserver"]
    rejected = count_rejections(urls, list(ELEMENTS.values()), responses)
    if misuse is reversed_order:
        # Well-formed answers to the wrong calls: the checks reject them.
        assert rejected
    else:
        # Not one slot per call: the whole frame failed, nothing was
        # parked, and the replay fetched every call on its own.
        assert rejected == 0
