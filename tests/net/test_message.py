"""Wire messages: framing, error transport, size accounting."""

from __future__ import annotations

import pytest

from repro.errors import AuthenticityError, RpcError, TransportError
from repro.globedoc.element import PageElement
from repro.net.message import Request, Response


class TestRequest:
    def test_roundtrip(self):
        req = Request(op="globedoc.get_element", args={"name": "a.html", "n": 3})
        restored = Request.from_bytes(req.to_bytes())
        assert restored.op == req.op
        assert dict(restored.args) == dict(req.args)

    def test_bytes_args(self):
        req = Request(op="x", args={"blob": b"\x00\x01"})
        assert Request.from_bytes(req.to_bytes()).args["blob"] == b"\x00\x01"

    def test_malformed_rejected(self):
        with pytest.raises(TransportError):
            Request.from_bytes(b"garbage")

    def test_response_frame_rejected_as_request(self):
        frame = Response.success(1).to_bytes()
        with pytest.raises(TransportError):
            Request.from_bytes(frame)


class TestRequestTraceContext:
    """The ctx field is advisory: absent means absent on the wire, and
    nothing a peer puts there can make decoding fail."""

    def test_context_roundtrips(self):
        ctx = {"trace": "client-000001", "span": "client:7"}
        req = Request(op="globedoc.get", args={"name": "a"}, ctx=ctx)
        restored = Request.from_bytes(req.to_bytes())
        assert dict(restored.ctx) == ctx

    def test_absent_context_omitted_from_wire(self):
        bare = Request(op="globedoc.get", args={"name": "a"})
        explicit_none = Request(op="globedoc.get", args={"name": "a"}, ctx=None)
        assert bare.to_bytes() == explicit_none.to_bytes()
        assert Request.from_bytes(bare.to_bytes()).ctx is None

    def test_empty_context_treated_as_absent(self):
        req = Request(op="globedoc.get", ctx={})
        assert req.to_bytes() == Request(op="globedoc.get").to_bytes()

    def test_garbage_context_decodes_without_error(self):
        # Hostile or truncated ctx values must decode, never raise; a
        # non-dict is normalised to None, a dict passes through verbatim
        # for the server's tracer to ignore.
        for garbage in ("junk", 7, [1, 2], True):
            frame = Request(op="globedoc.get", ctx=None).to_bytes()
            # Splice garbage in by re-encoding through the frame dict.
            from repro.util.encoding import from_wire, to_wire

            decoded = from_wire(frame)
            decoded["ctx"] = garbage
            restored = Request.from_bytes(to_wire(decoded))
            assert restored.op == "globedoc.get"
            assert restored.ctx is None
        wrong_shape = {"trace": 9, "unexpected": "field"}
        restored = Request.from_bytes(
            Request(op="globedoc.get", ctx=wrong_shape).to_bytes()
        )
        assert restored.op == "globedoc.get"
        assert dict(restored.ctx) == wrong_shape  # carried, not rejected


class TestResponse:
    def test_success_roundtrip(self):
        resp = Response.success({"value": [1, 2, 3]})
        restored = Response.from_bytes(resp.to_bytes())
        assert restored.ok
        assert restored.unwrap() == {"value": [1, 2, 3]}

    def test_failure_roundtrip(self):
        resp = Response.failure(AuthenticityError("hash mismatch"))
        restored = Response.from_bytes(resp.to_bytes())
        assert not restored.ok
        assert restored.error_type == "AuthenticityError"
        with pytest.raises(RpcError, match="hash mismatch"):
            restored.unwrap()

    def test_none_value(self):
        assert Response.from_bytes(Response.success(None).to_bytes()).unwrap() is None

    def test_malformed_rejected(self):
        with pytest.raises(TransportError):
            Response.from_bytes(b"\x00\x01")

    def test_bulk_bytes_cross_the_wire_once_and_raw(self):
        """The count guard for ROADMAP 1(a): a 256 KiB element costs its
        own bytes plus a fixed envelope on the wire — no base64 third, no
        escaping — and the frame holds those very bytes."""
        content = bytes(range(256)) * 1024
        frame = Response.success(PageElement("bulk.bin", content).to_dict()).to_bytes()
        assert len(frame) - len(content) < 256
        assert frame.count(content) == 1
