"""The answer memo: a server answers a repeated read from the frame it
already built, exactly while the answer's sources are unchanged.

The differential interleaves read frames — single and batched — with
every way the state behind an answer changes (an owner update, an
element swapped behind the server's back, a zone key rollover, a
location insert or delete, a torn-down and re-created replica), and
holds every answer frame byte for byte to what the handler renders
directly at that moment. The pins below it hold the memo's edges.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.attacks.malicious_location import LyingLocationService
from repro.crypto.identity import CertificateAuthority
from repro.globedoc.element import PageElement
from repro.globedoc.owner import DocumentOwner
from repro.location.service import LocationService
from repro.location.tree import DomainTree
from repro.naming.dnssec import SignedZone
from repro.naming.records import OidRecord
from repro.naming.service import NameService
from repro.naming.zone import Zone, ZoneKeys
from repro.net import rpc
from repro.net.address import ContactAddress, Endpoint
from repro.net.message import Request, Response
from repro.obs import RingBufferSink, Tracer
from repro.server.objectserver import ObjectServer
from repro.sim.clock import SimClock
from tests.answerfuzz import budget
from tests.conftest import EPOCH, fast_keys

HOST = "memo-host"
SITE, OTHER_SITE = "root/europe/vu", "root/us/cornell"
NAMES = ("vu.nl/a", "vu.nl/b")
ELEMENTS = ("index.html", "img/logo.png")


@functools.lru_cache(maxsize=None)
def keys(index: int):
    """Key pairs shared by every world of this module (signing is
    cheap, generating is not)."""
    return fast_keys()


class World:
    """Naming (root → nl → nl/vu), location and one object server
    hosting a replica of each of two documents, each service behind its
    own traced RPC server."""

    def __init__(self, spans: RingBufferSink = None) -> None:
        self.clock = SimClock(EPOCH)
        tracer = None
        if spans is not None:
            tracer = Tracer(clock=self.clock, sinks=(spans,), origin="memo")
        self.zones = {
            path: SignedZone(Zone(path), keys=ZoneKeys(zone=path, keys=keys(i)))
            for i, path in enumerate(("", "nl", "nl/vu"))
        }
        self.naming = NameService(self.zones[""])
        self.naming.add_zone(self.zones["nl"])
        self.naming.add_zone(self.zones["nl/vu"])
        tree = DomainTree()
        for site in (SITE, OTHER_SITE):
            tree.add_site(site)
        self.location = LocationService(tree)
        self.server = ObjectServer(host=HOST, site=SITE, clock=self.clock, tracer=tracer)
        ca = CertificateAuthority("memo CA", keys=keys(3))
        self.owners = []
        for index, name in enumerate(NAMES):
            owner = DocumentOwner(name, keys=keys(4 + index), clock=self.clock)
            owner.put_elements(PageElement(e, f"{name}/{e}".encode()) for e in ELEMENTS)
            if index == 0:
                owner.request_identity_certificate(ca)
            self.server.create_replica(owner.publish(), owner.public_key, name)
            self.naming.register(OidRecord(name=name, oid=owner.oid))
            self.location.insert(
                owner.oid.hex, SITE, self.server.contact_address(owner.oid.hex).to_dict()
            )
            self.owners.append(owner)
        self.rpc = {
            "naming": self.naming.rpc_server(tracer=tracer),
            "location": self.location.rpc_server(tracer=tracer),
            "objectserver": self.server.rpc_server(),
        }
        self.handlers = {
            "naming.resolve": self.naming.resolve_with_proof,
            "location.lookup": self.location.lookup,
            "globedoc.bind": self.server.rpc_bind,
            "globedoc.get_element": self.server.rpc_get_element,
            "globedoc.get_public_key": self.server.rpc_get_public_key,
        }
        self.rotations = itertools.cycle((6, 7, 2))
        self.extra = ContactAddress(Endpoint("elsewhere", "objectserver"), "globedoc/replica", "x")

    def replica_id(self, doc: int) -> str:
        return f"{self.owners[doc].oid.hex[:16]}@{HOST}"

    def direct(self, op: str, args: dict) -> Response:
        """The answer the handler renders right now, outside the server."""
        try:
            return Response.success(self.handlers[op](**args))
        except Exception as exc:
            return Response.failure(exc)

    def expected(self, calls, batch: bool) -> bytes:
        answers = [self.direct(op, args) for op, args in calls]
        if not batch:
            return answers[0].to_bytes()
        return Response.success([a.to_slot() for a in answers]).to_bytes()

    # -- the ways an answer's sources change ------------------------------

    def update_replica(self, doc: int, element: int) -> None:
        owner = self.owners[doc]
        name = ELEMENTS[element]
        owner.put_element(PageElement(name, f"v{owner.version + 1} of {name}".encode()))
        if self.server.hosts_oid(owner.oid.hex):
            self.server.update_replica(owner.publish(), owner.public_key)

    def swap_element(self, doc: int, element: int) -> None:
        oid_hex = self.owners[doc].oid.hex
        if self.server.hosts_oid(oid_hex):
            elements = self.server.replica_for_oid(oid_hex).lr.state.elements
            genuine = elements[ELEMENTS[element]]
            elements[genuine.name] = genuine.with_content(b"swapped " + genuine.content)

    def roll_zone_key(self, doc: int, element: int) -> None:
        vu = self.zones["nl/vu"]
        vu.rotate_keys(ZoneKeys(zone="nl/vu", keys=keys(next(self.rotations))))
        if element:  # the parent re-delegates, or not yet
            self.zones["nl"].redelegate(vu)

    def move_location(self, doc: int, element: int) -> None:
        oid_hex = self.owners[doc].oid.hex
        change = self.location.delete if element else self.location.insert
        try:
            change(oid_hex, SITE, self.extra.to_dict())
        except Exception:
            pass  # deleting what is not there, inserting twice

    def teardown_or_recreate(self, doc: int, element: int) -> None:
        owner = self.owners[doc]
        if self.server.hosts_oid(owner.oid.hex):
            self.server.destroy_replica(self.replica_id(doc), owner.public_key)
        else:
            self.server.create_replica(owner.publish(), owner.public_key, owner.name)


CHANGES = (
    World.update_replica,
    World.swap_element,
    World.roll_zone_key,
    World.move_location,
    World.teardown_or_recreate,
)

docs, elements = st.integers(0, 1), st.integers(0, 2)  # element 2 is absent


@st.composite
def replica_call(draw, reads_only: bool = False):
    doc, element = draw(docs), draw(elements)
    ops = ["globedoc.bind", "globedoc.get_element"]
    if not reads_only:
        ops.append("globedoc.get_public_key")  # not a declared read
    op = draw(st.sampled_from(ops))
    args = {"doc": doc}
    if op != "globedoc.get_public_key":
        args["name"] = ELEMENTS[element] if element < 2 else "absent.html"
    return op, args


#: A step: ("change", which, doc, element), or ("ask", service, calls, batch).
steps = st.one_of(
    st.tuples(st.just("change"), st.sampled_from(CHANGES), docs, st.integers(0, 1)),
    st.tuples(
        st.just("ask"),
        st.just("naming"),
        st.tuples(st.tuples(st.just("naming.resolve"), st.sampled_from(NAMES + ("vu.nl/c",)))),
        st.just(False),
    ),
    st.tuples(
        st.just("ask"),
        st.just("location"),
        st.tuples(st.tuples(st.just("location.lookup"), docs)),
        st.just(False),
    ),
    st.tuples(
        st.just("ask"),
        st.just("objectserver"),
        st.lists(replica_call(), min_size=1, max_size=3).map(tuple),
        st.booleans(),
    ),
)


def concrete(world: World, op: str, spec) -> dict:
    """The wire args of a drawn call."""
    if op == "naming.resolve":
        return {"name": spec}
    if op == "location.lookup":
        return {"oid": world.owners[spec].oid.hex, "origin_site": SITE}
    args = {"replica_id": world.replica_id(spec["doc"])}
    if "name" in spec:
        args["name"] = spec["name"]
    return args


def request_frame(calls, batch: bool) -> bytes:
    if batch:
        return Request.batch(calls).to_bytes()
    ((op, args),) = calls
    return Request(op=op, args=args).to_bytes()


@budget
@given(st.lists(steps, min_size=1, max_size=40))
def test_every_answer_is_the_handlers_own(history):
    world = World()
    for step in history:
        if step[0] == "change":
            _, change, doc, element = step
            change(world, doc, element)
            continue
        _, service, drawn, batch = step
        calls = [(op, concrete(world, op, spec)) for op, spec in drawn]
        batch = batch or len(calls) > 1
        answer = world.rpc[service].handle_frame(request_frame(calls, batch))
        assert answer == world.expected(calls, batch)


# ----------------------------------------------------------------------
# Pins
# ----------------------------------------------------------------------


@pytest.fixture
def spans():
    return RingBufferSink()


@pytest.fixture
def world(spans):
    return World(spans)


def from_memo(spans: RingBufferSink) -> list:
    return [
        span.attributes["op"]
        for span in spans.spans
        if span.name == "server.handle" and span.attributes.get("from_memo")
    ]


def ask(world: World, service: str, calls, batch: bool = False) -> bytes:
    return world.rpc[service].handle_frame(request_frame(calls, batch))


def bind(world: World, name: str = "index.html", doc: int = 0):
    return "globedoc.bind", {"replica_id": world.replica_id(doc), "name": name}


def get_element(world: World, name: str = "index.html", doc: int = 0):
    return "globedoc.get_element", {"replica_id": world.replica_id(doc), "name": name}


def test_a_repeated_read_is_answered_from_the_memo(world, spans):
    resolve = ("naming.resolve", {"name": "vu.nl/a"})
    lookup = ("location.lookup", {"oid": world.owners[0].oid.hex, "origin_site": SITE})
    for _ in range(3):
        assert ask(world, "naming", [resolve]) == world.expected([resolve], False)
        assert ask(world, "location", [lookup]) == world.expected([lookup], False)
        assert ask(world, "objectserver", [bind(world)]) == world.expected([bind(world)], False)
    assert sorted(from_memo(spans)) == sorted(
        ["naming.resolve", "location.lookup", "globedoc.bind"] * 2
    )


def test_a_hit_records_one_span_per_call(world, spans):
    """tcp_page's fetch wave, repeated: one lookup, one span per call."""
    calls = [bind(world), get_element(world, "img/logo.png"), get_element(world)]
    first = ask(world, "objectserver", calls, batch=True)
    assert from_memo(spans) == []
    handled = len([s for s in spans.spans if s.name == "server.handle"])
    assert ask(world, "objectserver", calls, batch=True) == first
    assert from_memo(spans) == ["globedoc.bind", "globedoc.get_element", "globedoc.get_element"]
    assert len([s for s in spans.spans if s.name == "server.handle"]) == handled + 3


def test_an_error_answer_is_never_stored(world, spans):
    missing = get_element(world, "absent.html")
    kept = world.rpc["objectserver"]._memo._kept
    for calls, batch in (([missing], False), ([bind(world), missing], True)):
        answers = {ask(world, "objectserver", calls, batch) for _ in range(3)}
        assert answers == {world.expected(calls, batch)}
        assert b"ConsistencyError" in answers.pop()
        assert request_frame(calls, batch) not in kept
    assert from_memo(spans) == []


def test_a_traced_frame_takes_the_ordinary_path(world, spans):
    op, args = bind(world)
    ctx = {"trace": "t-1", "span": "client:1"}
    traced = Request(op=op, args=args, ctx=ctx).to_bytes()
    for _ in range(2):
        assert Response.from_bytes(world.rpc["objectserver"].handle_frame(traced)).ok
    # Nothing was kept for the traced frame or its untraced twin.
    ask(world, "objectserver", [(op, args)])
    assert from_memo(spans) == []
    adopted = [s for s in spans.spans if s.trace_id == "t-1"]
    assert len(adopted) == 2 and all("from_memo" not in s.attributes for s in adopted)


def test_an_answer_over_the_cap_is_never_stored(world, spans):
    big = rpc._ANSWER_CAP
    owner = world.owners[0]
    owner.put_element(PageElement("big.bin", b"\x01" * big))
    world.server.update_replica(owner.publish(), owner.public_key)
    for _ in range(2):
        assert len(ask(world, "objectserver", [get_element(world, "big.bin")])) > big
    assert from_memo(spans) == []


def test_the_byte_bound_holds(world, spans):
    """Distinct answers past the bound: the oldest go first, and what
    is kept never passes ANSWER_MEMO_BYTES."""
    size = rpc._ANSWER_CAP - 1024
    owner = world.owners[0]
    count = rpc.ANSWER_MEMO_BYTES // size + 4
    owner.put_elements(PageElement(f"e{i}.bin", bytes([i]) * size) for i in range(count))
    world.server.update_replica(owner.publish(), owner.public_key)
    memo = world.rpc["objectserver"]._memo
    for i in range(count):
        ask(world, "objectserver", [get_element(world, f"e{i}.bin")])
        assert memo._bytes <= rpc.ANSWER_MEMO_BYTES
        assert memo._bytes == sum(len(f) + len(k.answer) for f, k in memo._kept.items())
    ask(world, "objectserver", [get_element(world, f"e{count - 1}.bin")])
    ask(world, "objectserver", [get_element(world, "e0.bin")])
    assert from_memo(spans) == ["globedoc.get_element"]  # the newest only


def test_an_overridden_read_is_never_served_from_the_honest_basis(world):
    """A lying location service overrides ``lookup`` with no basis of
    its own: a new lie shows at once, though the tree (the honest
    basis) never changed."""
    liar = LyingLocationService(world.location.tree)
    server = liar.rpc_server()
    oid_hex = world.owners[0].oid.hex
    frame = request_frame([("location.lookup", {"oid": oid_hex, "origin_site": SITE})], False)
    honest = server.handle_frame(frame)
    assert server.handle_frame(frame) == honest
    liar.lie_about(oid_hex, [world.extra])
    lie = Response.from_bytes(server.handle_frame(frame)).value
    assert lie["addresses"] == [world.extra.to_dict()]
    liar.lie_about(oid_hex, [world.extra, world.extra])
    assert len(Response.from_bytes(server.handle_frame(frame)).value["addresses"]) == 2


def test_a_wrapped_read_handler_is_called_as_it_is(world, spans):
    """An instance attribute wrapping a declared read (as a benchmark's
    span recorder does, marks copied) is a plain handler."""
    calls = []
    original = world.server.rpc_get_element

    def wrapped(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    wrapped.__dict__.update(original.__dict__)
    world.server.rpc_get_element = wrapped
    server = world.server.rpc_server()
    frame = request_frame([get_element(world)], False)
    assert server.handle_frame(frame) == server.handle_frame(frame)
    assert len(calls) == 2
    assert from_memo(spans) == []


def test_serve_count_counts_elements_served_from_the_memo(world, spans):
    lr = world.server.replica_for_oid(world.owners[0].oid.hex).lr
    for _ in range(3):
        ask(world, "objectserver", [get_element(world)])
        ask(world, "objectserver", [bind(world, "img/logo.png")])
    assert lr.serve_count == 6
    assert len(from_memo(spans)) == 4
    world.swap_element(0, 0)  # a miss after a hit's basis check
    ask(world, "objectserver", [get_element(world)])
    assert lr.serve_count == 7


def test_concurrent_handler_threads_keep_the_memo_whole(world):
    """TCP handler threads share a server's memo: under a tiny switch
    interval, threads past the core count answering and evicting at once
    leave every answer right and the byte count exact."""
    size = rpc._ANSWER_CAP // 2
    owner = world.owners[0]
    count = 2 * rpc.ANSWER_MEMO_BYTES // size
    owner.put_elements(PageElement(f"e{i}.bin", bytes([i % 256]) * size) for i in range(count))
    world.server.update_replica(owner.publish(), owner.public_key)
    frames = [request_frame([get_element(world, f"e{i}.bin")], False) for i in range(count)]
    expected = [world.expected([get_element(world, f"e{i}.bin")], False) for i in range(count)]
    server, wrong = world.rpc["objectserver"], []

    def hammer(offset: int) -> None:
        for step in range(3 * count):
            i = (offset + step * 7) % count
            if server.handle_frame(frames[i]) != expected[i]:
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    memo = server._memo
    assert memo._bytes == sum(len(f) + len(k.answer) for f, k in memo._kept.items())
    assert memo._bytes <= rpc.ANSWER_MEMO_BYTES
