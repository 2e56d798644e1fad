"""RPC layer: method registration and remote invocation.

An :class:`RpcServer` exposes a set of named operations as a frame
handler that any transport can host. :class:`RpcClient` encodes calls
and decodes results. Exceptions raised by handlers travel back with
their class name; client-side, security exceptions re-raise as the
proper :mod:`repro.errors` types so attack detection survives the wire.

A server never signs what it serves, so the answer to a *declared read*
(``@rpc_method(op, basis=...)``) is a pure function of the objects its
basis looks up. The server keeps the answer frame it sent for each
repeated read frame and sends it again while every basis object is
still the one the answer was rendered from (DESIGN §1, S8).
"""

from __future__ import annotations

import logging
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import repro.errors as _errors
from repro.errors import RpcError, TransportError
from repro.net.address import ContactAddress, Endpoint
from repro.net.message import BATCH_OP, Request, Response
from repro.net.transport import Transport
from repro.obs import NOOP_TRACER

__all__ = [
    "RpcServer",
    "RpcClient",
    "BatchCall",
    "BatchOutcome",
    "rpc_method",
    "DEFAULT_WINDOW",
    "ANSWER_MEMO_BYTES",
]

#: Cap on the RPCs a pipelined batch keeps in flight at once.
DEFAULT_WINDOW = 8

#: Request plus answer frame bytes one server keeps for repeated reads;
#: an exchange over a 32nd of it is never kept. Each kept answer also
#: holds the objects it was rendered from: the server's live state, or,
#: once superseded, about the answer's own size again, so what the memo
#: alone holds on to can reach about twice this.
ANSWER_MEMO_BYTES = 2 * 2**20
_ANSWER_CAP = ANSWER_MEMO_BYTES // 32

logger = logging.getLogger(__name__)

Handler = Callable[..., Any]

_RPC_ATTR = "_rpc_op_name"
_READ_ATTR = "_rpc_read"


def rpc_method(
    op: str, basis: Optional[Callable[..., tuple]] = None
) -> Callable[[Handler], Handler]:
    """Decorator marking a method as the handler for operation *op*.

    Classes passing an instance to :meth:`RpcServer.register_object` get
    all marked methods exposed.

    *basis* declares *op* a read: ``basis(self, **args)`` looks up, and
    returns as a tuple, the objects of server state its answer is made
    of (no rendering, no encoding), and the decorated method renders the
    answer from that tuple and nothing else. The method callers and the
    server see takes *basis*'s arguments: ``render(self, *basis(self,
    **args))``.
    """

    def mark(fn: Handler) -> Handler:
        handler = fn
        if basis is not None:

            def handler(self, *args: Any, **kwargs: Any) -> Any:
                return fn(self, *basis(self, *args, **kwargs))

            handler.__name__, handler.__qualname__ = fn.__name__, fn.__qualname__
            handler.__doc__ = fn.__doc__
            setattr(handler, _READ_ATTR, (basis, fn))
        setattr(handler, _RPC_ATTR, op)
        return handler

    return mark


def _same(a: Any, b: Any) -> bool:
    """Whether basis *a* is basis *b*: the same objects, tuples element
    by element, and text or numbers of one type by value. Objects
    compare by identity alone, because equal objects need not render
    alike (``1 == True``; an envelope's equality ignores the signed
    bytes it travels as)."""
    if a is b:
        return True
    kind = type(a)
    if kind is not type(b):
        return False
    if kind is tuple:
        return len(a) == len(b) and all(map(_same, a, b))
    return (kind is str or kind is int) and a == b


class _Kept(NamedTuple):
    """A kept answer: its frame, and per call of the request (op, args,
    bound basis, bound render) and the basis it was rendered from."""

    answer: bytes
    batch: bool
    reads: Tuple[Tuple[str, Mapping[str, Any], Callable, Callable], ...]
    bases: Tuple[Any, ...]


class _AnswerMemo:
    """Kept answers by the exact request frame, least recently used
    dropped first, holding at most :data:`ANSWER_MEMO_BYTES` of request
    and answer frames (plus the bases they pin); safe under concurrent
    handler threads."""

    def __init__(self) -> None:
        self._kept: "OrderedDict[bytes, _Kept]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    def get(self, frame: bytes) -> Optional[_Kept]:
        if len(frame) > _ANSWER_CAP:
            return None
        # One dict read is atomic; a miss, the common case for any frame
        # but a repeated read, takes no lock.
        kept = self._kept.get(frame)
        if kept is not None:
            with self._lock:
                if frame in self._kept:
                    self._kept.move_to_end(frame)
        return kept

    def put(self, frame: bytes, answer: bytes, batch: bool, reads: tuple, bases: tuple) -> None:
        size = len(frame) + len(answer)
        if size > _ANSWER_CAP:
            return
        with self._lock:
            old = self._kept.pop(frame, None)
            if old is not None:
                self._bytes -= len(frame) + len(old.answer)
            self._kept[frame] = _Kept(answer, batch, reads, bases)
            self._bytes += size
            while self._bytes > ANSWER_MEMO_BYTES:
                dropped_frame, dropped = self._kept.popitem(last=False)
                self._bytes -= len(dropped_frame) + len(dropped.answer)


class RpcServer:
    """Dispatches decoded requests to registered operation handlers.

    ``tracer`` (optional) records one ``server.handle`` span per call —
    per frame, or per entry of a batch frame — the server half of the
    access-pipeline trace.

    A frame of declared reads only, without trace context, is answered
    from its calls' bases: the answer frame kept for the same request
    frame while every basis is the kept one, else rendered afresh (and
    kept when every call succeeded).
    """

    def __init__(self, name: str = "rpc", tracer=None) -> None:
        self.name = name
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self._ops: Dict[str, Handler] = {}
        #: op -> (bound basis, bound render) of each declared read.
        self._reads: Dict[str, Tuple[Callable, Callable]] = {}
        self._memo = _AnswerMemo()

    def register(self, op: str, handler: Handler) -> None:
        """Serve *op* with *handler*. A declared read counts as one only
        as the method it was declared on, bound to its object: a wrapper
        or an override without its own basis is called as it is."""
        if op == BATCH_OP:
            raise RpcError(f"operation {op!r} is reserved for batch frames")
        if op in self._ops:
            raise RpcError(f"operation {op!r} already registered on {self.name}")
        self._ops[op] = handler
        read = getattr(handler, _READ_ATTR, None)
        owner = getattr(handler, "__self__", None)
        if read is not None and owner is not None:
            basis, render = read
            self._reads[op] = (partial(basis, owner), partial(render, owner))

    def register_object(self, obj: Any) -> None:
        """Register every ``@rpc_method``-marked method of *obj*."""
        for attr_name in dir(obj):
            attr = getattr(obj, attr_name)
            op = getattr(attr, _RPC_ATTR, None)
            if op is not None and callable(attr):
                self.register(op, attr)

    @property
    def operations(self) -> list:
        return sorted(self._ops)

    def handle_frame(self, frame: bytes) -> bytes:
        """The transport-facing entry point: bytes in, bytes out.

        Handler exceptions become error responses; nothing escapes to
        the transport (a malformed request must not kill a server). The
        ``server.handle`` span is still marked with the error, so traces
        show server-side failures that the wire reports as mere failure
        responses.

        A batch frame (:data:`~repro.net.message.BATCH_OP`) is answered
        with one slot per call, in order. Each call is dispatched — and
        spanned, under the frame's trace context — exactly as if it had
        come alone, so a malformed entry, an unknown op (a nested batch
        is one) or a raising handler fails its own slot only.
        """
        kept = self._memo.get(frame)
        if kept is not None:
            return self._answer_reads(frame, kept.reads, kept.batch, kept)
        try:
            request = Request.from_bytes(frame)
        except Exception as exc:
            # There is no trace context to adopt from an undecodable
            # frame: the failure is recorded on a plain root span.
            refused = TransportError(f"bad request frame: {exc}")
            return self._answer(None, "<malformed>", {}, refused).to_bytes()
        if request.op != BATCH_OP:
            read = self._reads.get(request.op) if request.ctx is None else None
            if read is not None:
                return self._answer_reads(frame, ((request.op, request.args, *read),), False)
            return self._answer(request.ctx, request.op, request.args).to_bytes()
        try:
            calls = request.batch_calls()
        except RpcError as refused:
            return self._answer(request.ctx, BATCH_OP, {}, refused).to_bytes()
        reads = self._reads_of(calls) if request.ctx is None else None
        if reads is not None:
            return self._answer_reads(frame, reads, True)
        slots = [self._answer(request.ctx, *call).to_slot() for call in calls]
        return Response.success(slots).to_bytes()

    def _reads_of(self, calls) -> Optional[tuple]:
        """(op, args, bound basis, bound render) of each of a batch's
        *calls*, or None unless every call is a well-formed declared read."""
        reads = []
        for op, args, refused in calls:
            read = self._reads.get(op)
            if read is None or refused is not None:
                return None
            reads.append((op, args, *read))
        return tuple(reads)

    def _answer_reads(
        self, frame: bytes, reads: tuple, batch: bool, kept: Optional[_Kept] = None
    ) -> bytes:
        """The answer to a frame of declared reads, each call's basis
        looked up once: *kept*'s answer if every basis is the one it was
        rendered from, else each call rendered from its basis afresh."""
        found: List[Any] = []
        for _, args, basis, _ in reads:
            try:
                found.append(basis(**args))
            except Exception as exc:
                found.append(exc)
        bases = tuple(found)
        if kept is not None and _same(bases, kept.bases):
            for op, *_ in reads:
                with self.tracer.span_from(None, "server.handle", server=self.name) as span:
                    span.set_attribute("op", op)
                    span.set_attribute("from_memo", True)
            return kept.answer
        answers = [
            self._answer(None, op, {}, refused=basis)
            if isinstance(basis, Exception)
            else self._answer(None, op, {}, handler=partial(render, *basis))
            for (op, _, _, render), basis in zip(reads, bases)
        ]
        if batch:
            answer = Response.success([a.to_slot() for a in answers]).to_bytes()
        else:
            answer = answers[0].to_bytes()
        if all(a.ok for a in answers):
            self._memo.put(frame, answer, batch, reads, bases)
        return answer

    def _answer(
        self,
        ctx,
        op: str,
        args: Mapping[str, Any],
        refused: Optional[Exception] = None,
        handler: Optional[Handler] = None,
    ) -> Response:
        """One call's response, under its own ``server.handle`` span:
        ``handler(**args)``, *op*'s registered handler unless given, or
        *refused*, the failure of a call that is not dispatched."""
        with self.tracer.span_from(ctx, "server.handle", server=self.name) as span:
            span.set_attribute("op", op)
            handler = handler or self._ops.get(op)
            if refused is None and handler is None:
                refused = RpcError(f"unknown operation {op!r}")
            if refused is not None:
                span.mark_error(refused)
                return Response.failure(refused)
            try:
                value = handler(**args)
            except Exception as exc:
                logger.debug("handler %s failed: %s", op, exc)
                span.mark_error(exc)
                return Response.failure(exc)
            return Response.success(value)


@dataclass(frozen=True)
class BatchCall:
    """One invocation in a pipelined batch (target + op + args)."""

    target: Any  # Endpoint or ContactAddress
    op: str
    args: Mapping[str, Any] = field(default_factory=dict)


@dataclass
class BatchOutcome:
    """Result slot of one :class:`BatchCall`: a value or an exception.

    Batched calls never raise per-call — a failed call's outcome carries
    the rehydrated exception, and the prefetcher parks only the values.
    """

    value: Any = None
    error: Optional[Exception] = None

    @property
    def ok(self) -> bool:
        return self.error is None


# Error classes that are re-raised with their original type client-side.
_REHYDRATABLE = {
    name: getattr(_errors, name)
    for name in _errors.__all__
    if isinstance(getattr(_errors, name), type)
}


def _endpoint_of(target) -> Endpoint:
    """The endpoint a call's *target* (Endpoint or ContactAddress) names."""
    endpoint = target.endpoint if isinstance(target, ContactAddress) else target
    if not isinstance(endpoint, Endpoint):
        raise RpcError(f"invalid RPC target: {target!r}")
    return endpoint


def _remote_error(response: Response) -> Exception:
    """The exception a failure *response* transports, rehydrated."""
    exc_cls = _REHYDRATABLE.get(response.error_type)
    if exc_cls is not None:
        return exc_cls(response.error)
    return RpcError(f"{response.error_type or 'RemoteError'}: {response.error}")


class RpcClient:
    """Client-side call helper over any :class:`Transport`.

    ``tracer`` (optional) records one ``rpc.call`` span per invocation
    with the operation, target, and transferred byte counts; a failed
    call (transport fault or re-raised remote error) closes the span
    with error status and the exception's class name.
    """

    def __init__(self, transport: Transport, tracer=None, metrics=None) -> None:
        self.transport = transport
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        # ``metrics`` is accepted but unused: ``perf/`` still passes it
        # (ROADMAP 1(a)/8(a) remove it); per-call timing is the span.

    def call(self, target, op: str, **args: Any) -> Any:
        """Invoke *op* at *target* (an Endpoint or ContactAddress)."""
        endpoint = _endpoint_of(target)
        with self.tracer.span("rpc.call", op=op, target=str(endpoint)) as span:
            # Built inside the span so the envelope carries *this* span
            # as the remote parent of the server's ``server.handle``.
            request = Request(op=op, args=args, ctx=self.tracer.context())
            wire = request.to_bytes()
            span.set_attribute("sent_bytes", len(wire))
            frame = self.transport.request(endpoint, wire)
            span.set_attribute("received_bytes", len(frame))
            response = Response.from_bytes(frame)
            if response.ok:
                return response.value
            raise _remote_error(response)

    # ------------------------------------------------------------------
    # Pipelined batches
    # ------------------------------------------------------------------

    def call_many(self, calls: Sequence[BatchCall]) -> List[BatchOutcome]:
        """Issue a batch of calls, at most :data:`DEFAULT_WINDOW` in
        flight at once.

        When the transport can carry a window as one exchange
        (``request_many`` — the simulated WAN charges max-of-parallel,
        the TCP transport pipelines the window down one pooled
        connection per server), each window of calls travels together
        under one ``rpc.call_many`` span, as one frame per endpoint: a
        lone call is its ordinary request frame, two or more are one
        batch frame answered by one response. Wrapper transports without
        batch support (fault injection, MITM) degrade to sequential
        :meth:`call` — same outcomes, serial cost.

        Outcomes align with *calls*; per-call failures — an invalid
        target included — are captured in the outcome's ``error``
        (rehydrated to the proper :mod:`repro.errors` type), never
        raised, on either path: the other calls of the window still
        travel. A batch answer that is not one well-formed slot per
        call fails every call of its frame with a ``TransportError``.
        """
        calls = list(calls)
        request_many = getattr(self.transport, "request_many", None)
        if request_many is None:
            return [self._call_outcome(call) for call in calls]
        outcomes: List[BatchOutcome] = []
        for start in range(0, len(calls), DEFAULT_WINDOW):
            chunk = calls[start : start + DEFAULT_WINDOW]
            with self.tracer.span("rpc.call_many", calls=len(chunk)) as span:
                # Every call in the window shares the call_many span as
                # its remote parent — the window *is* the causal unit.
                ctx = self.tracer.context()
                window_outcomes: List[Optional[BatchOutcome]] = [None] * len(chunk)
                groups: Dict[Endpoint, List[int]] = {}
                for slot, call in enumerate(chunk):
                    try:
                        endpoint = _endpoint_of(call.target)
                    except RpcError as exc:
                        window_outcomes[slot] = BatchOutcome(error=exc)
                        continue
                    groups.setdefault(endpoint, []).append(slot)
                frames = []
                for endpoint, slots in groups.items():
                    members = [(chunk[slot].op, chunk[slot].args) for slot in slots]
                    if len(members) == 1:
                        ((op, args),) = members
                        request = Request(op=op, args=dict(args), ctx=ctx)
                    else:
                        request = Request.batch(members, ctx=ctx)
                    frames.append((endpoint, request.to_bytes()))
                raw = request_many(frames)
                for slots, frame in zip(groups.values(), raw):
                    answers = _decode_answers(frame, len(slots))
                    for slot, answer in zip(slots, answers):
                        window_outcomes[slot] = _outcome(answer)
                errors = sum(not outcome.ok for outcome in window_outcomes)
                outcomes.extend(window_outcomes)
                span.set_attribute("errors", errors)
        return outcomes

    def _call_outcome(self, call: BatchCall) -> BatchOutcome:
        """Sequential fallback: one :meth:`call`, exception captured."""
        try:
            value = self.call(call.target, call.op, **dict(call.args))
        except Exception as exc:
            return BatchOutcome(error=exc)
        return BatchOutcome(value=value)


def _decode_answers(frame, count: int) -> list:
    """The *count* answers one raw transport slot carries, each a
    :class:`Response` or an exception: a failure response of a batch
    answers every call in it, and a frame that does not decode — or a
    batch answer that is not *count* slots — fails every call with a
    ``TransportError``."""
    if isinstance(frame, Exception):
        return [frame] * count
    try:
        response = Response.from_bytes(frame)
        if count == 1:
            return [response]
        if not response.ok:
            return [response] * count
        if not isinstance(response.value, list) or len(response.value) != count:
            raise TransportError(f"batch answer is not a list of {count} slots")
        return [Response.from_slot(slot) for slot in response.value]
    except Exception as exc:
        return [TransportError(f"bad response frame: {exc}")] * count


def _outcome(answer) -> BatchOutcome:
    if isinstance(answer, Exception):
        return BatchOutcome(error=answer)
    if answer.ok:
        return BatchOutcome(value=answer.value)
    return BatchOutcome(error=_remote_error(answer))
