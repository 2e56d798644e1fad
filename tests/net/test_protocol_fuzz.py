"""Protocol robustness: fuzzing the wire codecs and URL parser.

A hostile network can hand the stack arbitrary bytes; nothing may
crash with anything other than the library's typed errors.
"""

from __future__ import annotations

import json
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto import hashes
from repro.errors import EncodingError, ReproError, TransportError, UrlError
from repro.globedoc.urls import HybridUrl
from repro.net.message import Request, Response
from repro.util.encoding import from_canonical_bytes, from_wire, to_wire, wire_bytes

RESERVED_KEYS = ("__b64__", "__att__")
_keys = st.text(max_size=12).filter(lambda k: k not in RESERVED_KEYS)

# Arguments that survive both codecs.
_args = st.dictionaries(
    _keys,
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**40), max_value=2**40),
        st.text(max_size=32),
        st.binary(max_size=32),
        st.lists(st.integers(min_value=0, max_value=9), max_size=4),
    ),
    max_size=5,
)


class TestRequestFuzz:
    @given(st.text(min_size=1, max_size=40), _args)
    @settings(max_examples=100)
    def test_request_roundtrip(self, op, args):
        restored = Request.from_bytes(Request(op=op, args=args).to_bytes())
        assert restored.op == op
        assert dict(restored.args) == args

    @given(st.binary(max_size=200))
    @settings(max_examples=150)
    def test_arbitrary_bytes_never_crash(self, junk):
        try:
            Request.from_bytes(junk)
        except TransportError:
            pass  # the only acceptable failure mode

    @given(st.binary(max_size=200))
    @settings(max_examples=150)
    def test_response_arbitrary_bytes(self, junk):
        try:
            Response.from_bytes(junk)
        except TransportError:
            pass

    @given(
        st.sampled_from(["request", "response"]),
        st.dictionaries(
            st.sampled_from(["op", "args", "ctx", "ok", "value", "error", "error_type"]),
            st.one_of(st.none(), st.booleans(), st.integers(0, 9), st.text(max_size=4), _args),
        ),
    )
    @example("response", {})  # no ``ok``
    @example("request", {})
    @example("request", {"op": "x", "args": "ab"})
    @settings(max_examples=150)
    def test_well_formed_frame_with_absent_or_mistyped_fields(self, kind, fields):
        """Bytes that *do* decode to a frame of the right kind: every
        field may still be missing or of any type."""
        frame = to_wire({"kind": kind, **fields})
        try:
            decoded = (Request if kind == "request" else Response).from_bytes(frame)
        except TransportError:
            return
        if kind == "request":
            assert isinstance(decoded.op, str) and isinstance(decoded.args, dict)
        else:
            assert isinstance(decoded.ok, bool)


# Values with ``bytes`` (empty ones too) at any depth of lists and dicts.
_nested = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(min_value=-(2**40), max_value=2**40),
        st.text(max_size=8), st.binary(max_size=48),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(_keys, inner, max_size=4)
    ),
    max_leaves=12,
)


def _reordered(value):
    """An equal value whose every dict was filled in the reverse order."""
    if isinstance(value, dict):
        return {k: _reordered(v) for k, v in reversed(list(value.items()))}
    if isinstance(value, list):
        return [_reordered(v) for v in value]
    return value


def _as(kind, value):
    """An equal value with every ``bytes`` handed over as *kind*."""
    if isinstance(value, bytes):
        return kind(value)
    if isinstance(value, dict):
        return {k: _as(kind, v) for k, v in value.items()}
    if isinstance(value, list):
        return [_as(kind, v) for v in value]
    return value


def _split(frame: bytes):
    """A genuine frame as (header text, attachment region)."""
    cut = 4 + int.from_bytes(frame[:4], "big")
    return frame[4:cut], frame[cut:-4]


def _assemble(header: bytes, region: bytes, header_length=None, crc=None) -> bytes:
    """A frame with a *valid* trailer unless told otherwise, so what a
    mutation proves rejected is the mutation, not a stale checksum."""
    announced = len(header) if header_length is None else header_length
    body = announced.to_bytes(4, "big") + header + region
    return body + (zlib.crc32(body) if crc is None else crc).to_bytes(4, "big")


def _with_content_length(header: bytes, length) -> bytes:
    """*header* with the placeholder of ``value.content`` announcing *length*."""
    tree = json.loads(header)
    tree["value"]["content"] = {"__att__": length}
    return json.dumps(tree, sort_keys=True, separators=(",", ":")).encode("ascii")


#: name -> (header, region, drawn int) -> mutated frame. ``value.content``
#: is a non-empty attachment in every frame these are given.
MUTATIONS = {
    "header_length_short": lambda h, r, n: _assemble(h, r, len(h) - 1 - n % len(h)),
    "header_length_long": lambda h, r, n: _assemble(h, r, len(h) + 1 + n % len(r)),
    "header_length_beyond_frame": lambda h, r, n: _assemble(h, r, len(h) + len(r) + 1 + n % 2**31),
    "placeholder_negative": lambda h, r, n: _assemble(_with_content_length(h, -1 - n), r),
    "placeholder_bool": lambda h, r, n: _assemble(_with_content_length(h, bool(n % 2)), r),
    "placeholder_float": lambda h, r, n: _assemble(_with_content_length(h, n + 0.5), r),
    "placeholder_str": lambda h, r, n: _assemble(_with_content_length(h, str(n)), r),
    "placeholder_huge": lambda h, r, n: _assemble(_with_content_length(h, 2**40 + n), r),
    "placeholders_sum_past_frame": lambda h, r, n: _assemble(
        _with_content_length(h, json.loads(h)["value"]["content"]["__att__"] + 1 + n), r
    ),
    "placeholder_with_a_sibling_key": lambda h, r, n: _assemble(
        h.replace(b'{"__att__":', b'{"x":1,"__att__":', 1), r
    ),
    "old_base64_tag_in_header": lambda h, r, n: _assemble(
        h.replace(b'"__att__"', b'"__b64__"', 1), r
    ),
    "fewer_attachments": lambda h, r, n: _assemble(h, r[: -1 - n % len(r)]),
    "more_attachments": lambda h, r, n: _assemble(h, r + bytes(1 + n % 5)),
    "trailing_bytes": lambda h, r, n: _assemble(h, r) + bytes(1 + n % 5),
    "wrong_crc": lambda h, r, n: _assemble(h, r, crc=n),
    "truncated": lambda h, r, n: _assemble(h, r)[: n % (len(h) + len(r) + 8)],
}


class TestFrameCodecFuzz:
    """The transport codec (``to_wire``/``from_wire``): a header of
    canonical JSON, raw attachments, a CRC32 trailer — and one typed
    error for every way a frame can fail to be that."""

    @given(_nested)
    @settings(max_examples=200)
    def test_roundtrip_with_bytes_at_any_depth(self, value):
        frame = to_wire(value)
        assert from_wire(frame) == value
        assert b"__b64__" not in _split(frame)[0]

    @given(_nested)
    def test_equal_values_make_equal_frames(self, value):
        frame = to_wire(value)
        assert to_wire(_reordered(value)) == frame
        assert to_wire(_as(bytearray, value)) == frame
        assert to_wire(_as(memoryview, value)) == frame
        # ... and whatever buffer type went in, ``bytes`` come out.
        assert from_wire(to_wire(_as(bytearray, value))) == value

    def test_empty_and_non_utf8_bytes_roundtrip(self):
        value = {"a": b"", "b": [b"", bytes(range(256)), b""], "c": {"d": b"\xff\xfe"}}
        assert from_wire(to_wire(value)) == value

    def test_item_size_of_a_memoryview_is_not_its_length(self):
        wide = memoryview(b"abcdefgh").cast("I")  # two items, eight bytes
        assert from_wire(to_wire({"v": wide})) == {"v": b"abcdefgh"}

    @pytest.mark.parametrize("key", RESERVED_KEYS)
    @given(_nested)
    @settings(max_examples=20)
    def test_reserved_key_refused_on_encode(self, key, value):
        for poisoned in ({key: value}, {"outer": [{"inner": {key: value}}]}):
            with pytest.raises(EncodingError):
                to_wire(poisoned)
            with pytest.raises(EncodingError):
                Response.success(poisoned).to_bytes()

    def test_reserved_names_are_only_reserved_as_keys(self):
        """As text they are payload like any other — also when the text
        looks like a placeholder. A key that merely *ends* in a quote
        plus a reserved name is refused too (the check reads the
        header's text and errs on the side of refusing)."""
        value = {"a": '"__att__":', "b": ['{"__att__":3}', "__b64__"], "c": b"xyz"}
        assert from_wire(to_wire(value)) == value
        with pytest.raises(EncodingError):
            to_wire({'x"__att__': 1})

    @pytest.mark.parametrize(
        "value",
        [float("nan"), float("-inf"), {1, 2}, object(), {b"key": 1}, {("k",): 1}, {1: "a", "b": 2}],
        ids=["nan", "inf", "set", "object", "bytes_key", "tuple_key", "mixed_keys"],
    )
    def test_unencodable_value_is_a_typed_error(self, value):
        for holder in (value, {"v": [value]}):
            with pytest.raises(EncodingError):
                to_wire(holder)
        cycle: list = []
        cycle.append(cycle)
        with pytest.raises(EncodingError):
            to_wire(cycle)

    @pytest.mark.parametrize("mutation", list(MUTATIONS))
    @given(_nested, st.binary(min_size=1, max_size=48), st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_every_malformation_is_one_typed_error(self, mutation, payload, content, drawn):
        genuine = Response.success({"content": content, "payload": payload}).to_bytes()
        assert Response.from_bytes(genuine).value["content"] == content
        mutated = MUTATIONS[mutation](*_split(genuine), drawn)
        if mutated == genuine:  # a wrong_crc draw that hit the right one
            return
        with pytest.raises(EncodingError):
            from_wire(mutated)
        for message in (Request, Response):
            with pytest.raises(TransportError):
                message.from_bytes(mutated)

    @given(st.binary(max_size=64), st.binary(max_size=64))
    @settings(max_examples=200)
    def test_arbitrary_header_and_attachments_under_a_valid_checksum(self, header, region):
        """Past the checksum (an attacker computes it as well as we do)
        the header parser and the slicer still only ever raise
        ``EncodingError``."""
        try:
            from_wire(_assemble(header, region))
        except EncodingError:
            pass

    @pytest.mark.parametrize("depth", [5_000, 200_000])
    def test_deep_nesting_is_a_typed_error(self, depth):
        with pytest.raises(EncodingError):
            from_wire(_assemble(b"[" * depth + b"]" * depth, b""))

    def test_oversized_integer_literal_is_a_typed_error(self):
        with pytest.raises(EncodingError):
            from_wire(_assemble(b"1" * 5000, b""))


class TestResponseFuzz:
    @given(
        st.one_of(
            st.none(),
            st.integers(min_value=-(2**40), max_value=2**40),
            st.binary(max_size=64),
            _args,
        )
    )
    @settings(max_examples=100)
    def test_success_roundtrip(self, value):
        restored = Response.from_bytes(Response.success(value).to_bytes())
        assert restored.ok and restored.value == value

    @given(st.text(max_size=64))
    def test_error_roundtrip(self, message):
        resp = Response.failure(ValueError(message))
        restored = Response.from_bytes(resp.to_bytes())
        assert not restored.ok
        assert restored.error == str(ValueError(message))


class TestUrlFuzz:
    @given(st.text(max_size=80))
    @settings(max_examples=300)
    def test_parse_never_crashes_unexpectedly(self, junk):
        """Arbitrary text: parse or a typed UrlError, never anything
        else. (Malformed URLs from hostile HTML must not kill the
        proxy.)"""
        try:
            parsed = HybridUrl.parse(junk)
        except UrlError:
            return
        except ReproError:
            pytest.fail(f"non-UrlError ReproError for {junk!r}")
        assert parsed.raw == junk

    @given(st.binary(max_size=60))
    def test_frame_decode_garbage(self, junk):
        from repro.errors import EncodingError

        try:
            from_canonical_bytes(junk)
        except EncodingError:
            pass


def _bytes_field_decoders():
    """Every ``from_dict`` with a bytes-typed field that an untrusted
    answer feeds: id -> (decode, genuine wire dict, field)."""
    from repro.globedoc.element import PageElement
    from repro.globedoc.integrity import ElementEntry
    from repro.globedoc.oid import ObjectId
    from repro.versioning.delta import DeltaOp

    element = PageElement("x.html", b"content")
    entry = {"name": "x.html", "hash": element.content_hash(), "expires_at": 1.0}
    op = {"op": "put", "name": "x.html", "content": b"content"}
    return {
        "element.content": (PageElement.from_dict, element.to_dict(), "content"),
        "certificate_entry.hash": (ElementEntry.from_dict, entry, "hash"),
        "oid.digest": (ObjectId.from_dict, {"digest": b"d" * 20, "suite": "sha1"}, "digest"),
        "delta_op.content": (DeltaOp.from_dict, op, "content"),
    }


class TestBytesFieldFuzz:
    """``bytes(<int>)`` allocates; a bytes-typed wire field is decoded
    by :func:`wire_bytes`, which only lets real bytes through."""

    @given(
        st.one_of(
            st.none(),
            st.integers(min_value=-(2**40), max_value=2**40),
            st.floats(allow_nan=False),
            st.text(max_size=8),
            st.lists(st.integers(0, 255), max_size=4),
            st.dictionaries(st.text(max_size=3), st.integers(0, 9), max_size=2),
        )
    )
    @example(10**12)
    def test_only_bytes_pass(self, value):
        with pytest.raises(EncodingError):
            wire_bytes(value)
        assert wire_bytes(bytearray(b"ab")) == wire_bytes(b"ab") == b"ab"

    @pytest.mark.parametrize("case", list(_bytes_field_decoders()))
    @pytest.mark.parametrize("evil", [10**12, 50_000_000, "text", None, [1, 2]])
    def test_integer_in_every_bytes_field_is_a_typed_error(self, case, evil):
        decode, genuine, field = _bytes_field_decoders()[case]
        decode(genuine)  # the genuine dict decodes
        with pytest.raises(EncodingError):
            decode({**genuine, field: evil})

    def test_signed_document_key_and_oid_fields(self, shared_keys):
        from repro.globedoc.element import PageElement
        from repro.globedoc.owner import DocumentOwner, SignedDocument

        owner = DocumentOwner("vu.nl/fuzz", keys=shared_keys)
        owner.put_element(PageElement("x.html", b"content"))
        genuine = owner.publish(validity=60.0).to_dict()
        assert SignedDocument.from_dict(genuine).oid == owner.oid
        for forged in (
            {**genuine, "public_key_der": 10**12},
            {**genuine, "oid": {**genuine["oid"], "digest": 10**12}},
        ):
            with pytest.raises(EncodingError):
                SignedDocument.from_dict(forged)


def _retagged(value, tag):
    """*value* with every ``"suite"`` tag in it, at any depth, set to *tag*."""
    if isinstance(value, dict):
        return {k: tag if k == "suite" else _retagged(v, tag) for k, v in value.items()}
    if isinstance(value, list):
        return [_retagged(item, tag) for item in value]
    return value


@pytest.fixture(scope="module")
def tagged_world():
    """A loopback deployment with one published page and one versioned
    object holding one delta."""
    from repro.deployment import Deployment
    from repro.net.transport import LoopbackTransport
    from repro.sim.clock import SimClock
    from repro.versioning import DeltaDag
    from repro.versioning.grant import WriterGrant
    from repro.versioning.writer import DocumentWriter
    from tests.conftest import EPOCH, fast_keys

    loopback = LoopbackTransport()
    world = Deployment(
        SimClock(EPOCH), loopback.register, lambda host: loopback,
        "server", {"server": "root/s", "client": "root/c"},
    )
    owner = world.document_owner("vu.nl/tagged", {"index.html": b"<html>genuine</html>"})
    published = world.publish(owner)
    writer_keys = fast_keys()
    versioning = world.object_server.versioning
    versioning.register_object(owner.public_key)
    versioning.put_grant(
        owner.oid.hex,
        WriterGrant.issue(owner.keys, owner.oid, "alice", writer_keys.public,
                          granted_at=world.clock.now()),
    )
    writer = DocumentWriter(writer_keys, "alice", owner.oid, world.clock)
    versioning.put_delta(owner.oid.hex, writer.put(DeltaDag(), "body", b"v1"))
    return world, loopback, published


def _retagging_access(world, loopback, published, tag):
    """One proxy access with every certificate answer retagged, alone or
    inside a ``globedoc.bind`` answer."""
    from repro.attacks.mitm import MitmTransport

    def rewrite(endpoint, frame):
        response = Response.from_bytes(frame)
        value = response.value if response.ok else None
        if isinstance(value, dict) and ("envelope" in value or "certificate" in value):
            return Response.success(_retagged(value, tag)).to_bytes()
        return frame

    stack = world.client_stack("client", transport=MitmTransport(loopback, rewrite))
    return stack.proxy.handle(published.url("index.html"))


def _integrity_certificate(world, loopback, published, tag):
    """A 403 ``AuthenticityError`` at the proxy."""
    response = _retagging_access(world, loopback, published, tag)
    assert (response.status, response.security_failure) == (403, "AuthenticityError")


def _naming_answer(world, loopback, published, tag):
    """A ``ZoneValidationError`` at the resolver, walked and one-shot."""
    from repro.errors import ZoneValidationError
    from tests.naming.stubservice import stub_resolver

    genuine = world.naming.resolve_with_proof(published.owner.name)
    for iterative in (True, False):
        resolver = stub_resolver(
            _retagged(genuine, tag), world.naming.root_key, world.clock, iterative
        )
        with pytest.raises(ZoneValidationError):
            resolver.resolve(published.owner.name)


def _revocation_statement(world, loopback, published, tag):
    """A dropped statement in the feed: nothing is revoked."""
    from repro.revocation.checker import RevocationChecker
    from repro.revocation.statement import RevocationStatement

    owner = published.owner
    statement = RevocationStatement.revoke_key(
        owner.keys, owner.oid, serial=1, issued_at=world.clock.now(), reason="retagged"
    )

    class Feed:
        def call(self, target, op, **args):
            return {"head": 1, "statements": [_retagged(statement.to_dict(), tag)]}

    checker = RevocationChecker(Feed(), None, world.clock)
    assert checker.refresh() == 0
    assert checker.known_statements(owner.oid) == []
    checker.check(owner.oid)


def _delta(world, loopback, published, tag):
    """A malformed ``versioning.fetch`` answer: ``AuthenticityError``."""
    from repro.errors import AuthenticityError
    from repro.net.rpc import RpcClient
    from repro.proxy.checks import SecurityChecker
    from repro.versioning.client import VersionedReader

    honest = RpcClient(loopback)

    class Retagging:
        def call(self, endpoint, op, **args):
            answer = honest.call(endpoint, op, **args)
            if op == "versioning.fetch":
                answer = {**answer, "deltas": _retagged(answer["deltas"], tag)}
            return answer

    reader = VersionedReader(Retagging(), SecurityChecker(world.clock))
    with pytest.raises(AuthenticityError, match="malformed versioning.fetch"):
        reader.read(world.objectserver_endpoint, published.owner.oid)


def _admin_command(world, loopback, published, tag):
    """``AccessDenied`` at the admin port, before any signature check."""
    from repro.errors import AccessDenied
    from repro.net.rpc import RpcClient
    from repro.server.admin import AdminCommand

    command = AdminCommand.create(published.owner.keys, "list_replicas", {}, world.clock)
    with pytest.raises(AccessDenied, match="malformed"):
        RpcClient(loopback).call(
            world.objectserver_endpoint, "admin.execute",
            command=_retagged(command.to_dict(), tag),
        )


class TestForeignSuiteTag:
    """The wire's ``"suite"`` tag is checked against ``hashes.SUITE``,
    never obeyed: a foreign tag is the caller's usual typed rejection."""

    @pytest.mark.parametrize(
        "case",
        [
            _integrity_certificate,
            _naming_answer,
            _revocation_statement,
            _delta,
            _admin_command,
        ],
        ids=lambda case: case.__name__.strip("_"),
    )
    @pytest.mark.parametrize("tag", ["sha256", "md5", None])
    def test_foreign_tag_is_a_typed_rejection(self, tagged_world, case, tag):
        case(*tagged_world, tag)

    def test_own_tag_passes(self, tagged_world):
        """The same rewriting with the suite's own name is no attack."""
        assert _retagging_access(*tagged_world, hashes.SUITE.name).ok


def _hand_framed(header: str) -> bytes:
    """A frame around *header* text, as a hostile peer could write it."""
    body = len(header.encode()).to_bytes(4, "big") + header.encode()
    return body + zlib.crc32(body).to_bytes(4, "big")


_NUMBER_LITERALS = ("NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e308", "-0.0", "5e-324")
_header_leaves = st.one_of(
    st.sampled_from(_NUMBER_LITERALS),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(min_value=-(2**70), max_value=2**70).map(str),
    st.text(max_size=6).map(json.dumps),
    st.sampled_from(["null", "true", "false"]),
)
_header_text = st.recursive(
    _header_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(lambda items: "[" + ",".join(items) + "]"),
        st.dictionaries(_keys, inner, max_size=4).map(
            lambda d: "{" + ",".join(f"{json.dumps(k)}:{v}" for k, v in d.items()) + "}"
        ),
    ),
    max_leaves=12,
)
_framable = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**62), max_value=2**62),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=8),
        st.binary(max_size=16),
    ),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(_keys, inner, max_size=4)),
    max_leaves=12,
)


class TestHeaderNumbers:
    """``to_wire`` refuses NaN and the infinities, so ``from_wire`` does:
    a decoded value always frames again."""

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
    def test_non_finite_literal_is_an_encoding_error(self, literal):
        with pytest.raises(EncodingError, match="invalid frame header"):
            from_wire(_hand_framed('{"x":[1.5,%s]}' % literal))

    @given(_header_text)
    @settings(max_examples=200)
    def test_whatever_decodes_frames_again(self, header):
        try:
            value = from_wire(_hand_framed(header))
        except EncodingError:
            return
        assert from_wire(to_wire(value)) == value

    @given(_framable)
    @settings(max_examples=200)
    def test_a_written_frame_comes_back_byte_for_byte(self, value):
        frame = to_wire(value)
        assert to_wire(from_wire(frame)) == frame
