"""Protocol robustness: fuzzing the wire codecs and URL parser.

A hostile network can hand the stack arbitrary bytes; nothing may
crash with anything other than the library's typed errors.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import EncodingError, ReproError, TransportError, UrlError
from repro.globedoc.urls import HybridUrl
from repro.net.message import Request, Response
from repro.util.encoding import from_canonical_bytes, to_wire, wire_bytes

# Arguments that survive the canonical codec.
_args = st.dictionaries(
    st.text(max_size=12).filter(lambda k: k != "__b64__"),
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
        assert restored.unwrap() == value

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
