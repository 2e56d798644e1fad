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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from repro.errors import EncodingError, RpcError, TransportError
from repro.util.encoding import from_wire, to_wire

__all__ = ["Request", "Response"]


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
        if not isinstance(decoded.get("ok"), bool):
            raise TransportError("malformed response frame: ok absent or mistyped")
        return cls(
            ok=decoded["ok"],
            value=decoded.get("value"),
            error=str(decoded.get("error", "")),
            error_type=str(decoded.get("error_type", "")),
        )

    def unwrap(self) -> Any:
        """Return the value or raise the transported error."""
        if self.ok:
            return self.value
        raise RpcError(f"{self.error_type or 'RemoteError'}: {self.error}")
