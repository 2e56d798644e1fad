"""RPC wire messages.

Requests and responses serialise through the one frame codec
(:func:`repro.util.encoding.to_wire`: canonical-JSON header, raw
``bytes`` attachments, CRC32 trailer) so the bytes are identical on the
loopback, simulated, and TCP transports — which in turn makes simulated
transfer sizes honest (the simulator charges for the *actual* encoded
bytes, including certificate and key payloads, reproducing the paper's
"about 2KB of extra information"). A frame that fails the codec's
checks — a flipped bit, a truncation — is a :class:`TransportError`:
retryable link noise, never a verdict on the replica.

A *batch* is one request frame carrying several calls to one endpoint:
op :data:`BATCH_OP`, ``args`` ``{"calls": [{"op", "args"}, ...]}``. Its
answer is one success response whose value lists one *slot* per call,
in call order — a response frame's fields without ``kind``
(:meth:`Response.to_slot`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Mapping, Optional, Sequence, Tuple

from repro.errors import EncodingError, RpcError, TransportError
from repro.util.encoding import from_wire, to_wire

__all__ = ["Request", "Response", "BATCH_OP"]

#: The reserved op of a batch request; no handler may be registered
#: under it, so a batch nested in a batch is an unknown operation.
BATCH_OP = "rpc.batch"


@dataclass(frozen=True)
class Request:
    """An operation invocation on a remote endpoint.

    ``ctx`` is the caller's trace context (``{"trace": ..., "span": ...}``)
    — advisory observability metadata, never load-bearing. It is omitted
    from the wire entirely when absent (a NOOP-traced client produces
    byte-identical frames to an untraced build), and a malformed or
    unexpected value on decode is carried through verbatim for the
    server's tracer to ignore: trace context can never fail an RPC.
    """

    op: str
    args: Mapping[str, Any] = field(default_factory=dict)
    ctx: Optional[Mapping[str, Any]] = None

    def to_bytes(self) -> bytes:
        frame = {"kind": "request", "op": self.op, "args": dict(self.args)}
        if self.ctx:
            frame["ctx"] = dict(self.ctx)
        return to_wire(frame)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Request":
        try:
            decoded = from_wire(data)
        except EncodingError as exc:
            raise TransportError(f"undecodable request frame: {exc}") from exc
        if not isinstance(decoded, dict) or decoded.get("kind") != "request":
            raise TransportError("malformed request frame")
        op, args, ctx = decoded.get("op"), decoded.get("args", {}), decoded.get("ctx")
        if not isinstance(op, str) or not isinstance(args, dict):
            raise TransportError("malformed request frame: op or args mistyped")
        return cls(op=op, args=dict(args), ctx=ctx if isinstance(ctx, dict) else None)

    @classmethod
    def batch(cls, calls: Sequence[Tuple[str, Mapping[str, Any]]], ctx=None) -> "Request":
        """One request carrying every ``(op, args)`` of *calls*, in order."""
        entries = [{"op": op, "args": dict(args)} for op, args in calls]
        return cls(op=BATCH_OP, args={"calls": entries}, ctx=ctx)

    def batch_calls(self) -> List[Tuple[str, Mapping[str, Any], Optional[RpcError]]]:
        """``(op, args, refusal)`` of each call of this batch request, in
        order: *refusal* is set for an entry that is not ``{"op": str,
        "args": dict}``. A ``calls`` that is not a list is a
        :class:`RpcError`."""
        calls = self.args.get("calls")
        if not isinstance(calls, list):
            raise RpcError("malformed batch: calls is not a list")
        return [_batch_call(entry) for entry in calls]


def _batch_call(entry: Any) -> Tuple[str, Mapping[str, Any], Optional[RpcError]]:
    if isinstance(entry, dict):
        op, args = entry.get("op"), entry.get("args", {})
        if isinstance(op, str) and isinstance(args, dict):
            return op, args, None
    return "<malformed>", {}, RpcError("malformed batch entry: op or args mistyped")


@dataclass(frozen=True)
class Response:
    """Result of a request: a value on success, an error string otherwise.

    ``error_type`` carries the exception class name so the client side
    can re-raise security errors as security errors (a tampering
    detection must not degrade into a generic RPC failure).
    """

    ok: bool
    value: Any = None
    error: str = ""
    error_type: str = ""

    @classmethod
    def success(cls, value: Any) -> "Response":
        return cls(ok=True, value=value)

    @classmethod
    def failure(cls, exc: BaseException) -> "Response":
        return cls(ok=False, error=str(exc), error_type=type(exc).__name__)

    def to_bytes(self) -> bytes:
        return to_wire(
            {
                "kind": "response",
                "ok": self.ok,
                "value": self.value,
                "error": self.error,
                "error_type": self.error_type,
            }
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "Response":
        try:
            decoded = from_wire(data)
        except EncodingError as exc:
            raise TransportError(f"undecodable response frame: {exc}") from exc
        if not isinstance(decoded, dict) or decoded.get("kind") != "response":
            raise TransportError("malformed response frame")
        return cls.from_slot(decoded)

    def to_slot(self) -> dict:
        """This response as one slot of a batch answer."""
        if self.ok:
            return {"ok": True, "value": self.value}
        return {"ok": False, "error": self.error, "error_type": self.error_type}

    @classmethod
    def from_slot(cls, slot: Any) -> "Response":
        """A decoded response frame or batch slot: a mapping whose ``ok``
        is a ``bool``; ``error`` and ``error_type`` are read as text."""
        if not isinstance(slot, dict) or not isinstance(slot.get("ok"), bool):
            raise TransportError("malformed response: ok absent or mistyped")
        return cls(
            ok=slot["ok"],
            value=slot.get("value"),
            error=str(slot.get("error", "")),
            error_type=str(slot.get("error_type", "")),
        )

