"""Concurrent access pipeline: prefetch in waves, replay verified.

The sequential proxy charges one round trip per step of Fig. 3 —
resolve, locate, key, certificate, then one trip per element. For a
page of N elements that is ~(4 + N) serial RTTs even though none of the
fetches depend on each other's *bytes*, only on their verification
order. This module splits the two concerns:

* **Prefetch** — :class:`AccessScheduler` computes the RPCs a batch of
  URLs will need, issues them in waves through ``call_many`` (each
  window one batch frame per server; max-of-parallel across servers
  under the simulated clock, one pipelined exchange per server over
  TCP), and parks the raw results in a
  :class:`PrefetchingRpcClient` table keyed by (endpoint, op, args) —
  never more coarsely than the args' canonical encoding.
* **Replay** — the *unchanged* sequential code then runs: its RPCs pop
  their prefetched results at zero network cost, while every security
  check executes exactly as before, in exactly the same order.

A cold batch is three waves. Binding (§2.1) has two phases, and each is
a wave followed by its replay: every name the resolver must ask for,
replayed through ``binder.resolve_oid``; then every uncached location
lookup, replayed through ``binder.candidates``; a plan whose bind call
failed to park is left to the per-request replay. The third wave
fetches the keys, certificates and elements, replayed per request
through :meth:`GlobeDocProxy.handle`. Every call runs on the calling
thread.

Security semantics are preserved by construction: the table stores only
successful transports' bytes, never verdicts — tampered data is parked
just like genuine data and then fails the same check it always failed,
raising the same :class:`~repro.errors.SecurityError` subclass. A
prefetch *failure* is simply not parked, so the replay re-issues the
call and the retry/failover machinery sees it first-hand — including
every call of a batch frame whose answer is not one slot per call. A
wave is one attempt: the retry layer, when the stack has one, wraps
the prefetcher, so only the replay retries, once per call, as the
sequential proxy does.

Request coalescing has two layers: identical URLs in one batch share a
single replay (waiters get the leader's response object), and
identical calls in one wave share a single RPC.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.crypto.keys import PublicKey
from repro.errors import UrlError
from repro.globedoc.integrity import IntegrityCertificate
from repro.globedoc.urls import HybridUrl
from repro.net.rpc import BatchCall
from repro.net.address import ContactAddress
from repro.obs import NOOP_TRACER
from repro.server.localrep import ProxyLR
from repro.util.encoding import canonical_bytes, wire_bytes

__all__ = [
    "PipelineConfig",
    "PipelineCounters",
    "PrefetchingRpcClient",
    "AccessScheduler",
]

#: Argument types a call key holds as ``(type, value)`` instead of
#: encoding: for these, equal pairs always encode to equal canonical
#: bytes, so the key is never coarser than the encoding. ``float`` is
#: not one: ``0.0 == -0.0``, yet the two encode differently.
_KEY_SCALARS = frozenset((str, int, bool, bytes, type(None)))


@dataclass(frozen=True)
class PipelineConfig:
    """Turns the concurrent access pipeline on; it has no knobs."""


@dataclass
class PipelineCounters:
    """Plain counters one scheduler/prefetcher pair accumulates."""

    prefetched: int = 0
    prefetch_hits: int = 0
    prefetch_misses: int = 0
    coalesced_calls: int = 0
    coalesced_responses: int = 0
    waves: int = 0

class PrefetchingRpcClient:
    """An RPC client that serves parked prefetch results before the wire.

    Drop-in for :class:`~repro.net.rpc.RpcClient` (``call`` +
    ``transport``) over the plain client, beneath the retry layer when
    the stack has one. :meth:`prefetch` issues a wave of calls through
    the inner ``call_many`` — one attempt each — and parks each
    *successful* raw result under its call key; a later identical
    :meth:`call` pops the parked value at zero network cost. Entries are
    consumed exactly once (pop-on-use) and the scheduler clears the
    table on every exit of a batch, so no parked byte outlives the batch
    that fetched it.
    """

    def __init__(self, inner, metrics=None, tracer=None) -> None:
        self.inner = inner
        # ``metrics`` is accepted but unused: ``perf/`` still passes it
        # (ROADMAP 1(a)/8(a) remove it); the counts are ``counters_pipeline``.
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.counters_pipeline = PipelineCounters()
        self._table: Dict[tuple, List[Any]] = {}
        self._lock = threading.RLock()

    # -- RpcClient surface -------------------------------------------------

    @property
    def transport(self):
        return self.inner.transport

    def call(self, target, op: str, **args: Any) -> Any:
        key = self._call_key(target, op, args)
        with self._lock:
            parked = self._table.get(key)
            if parked:
                value = parked.pop(0)
                if not parked:
                    del self._table[key]
                self.counters_pipeline.prefetch_hits += 1
                return value
        self.counters_pipeline.prefetch_misses += 1
        return self.inner.call(target, op, **args)

    # -- Prefetch table ----------------------------------------------------

    def prefetch(self, calls: Sequence[BatchCall]) -> List[bool]:
        """Issue *calls* in parallel; park the successes. Returns, per
        call, whether its answer was parked.

        Duplicate calls (same key) within the wave collapse to a single
        RPC — the coalescing half of the pipeline — and park a single
        result, because duplicate *requests* share a single replay too.
        """
        keys = [self._call_key(call.target, call.op, call.args) for call in calls]
        unique: Dict[tuple, BatchCall] = {}
        for key, call in zip(keys, calls):
            if key in unique:
                self.counters_pipeline.coalesced_calls += 1
            else:
                unique[key] = call
        if not unique:
            return []
        self.counters_pipeline.waves += 1
        with self.tracer.span("pipeline.prefetch", calls=len(unique)) as span:
            outcomes = self.inner.call_many(list(unique.values()))
            parked = set()
            with self._lock:
                for key, outcome in zip(unique, outcomes):
                    if outcome.ok:
                        self._table.setdefault(key, []).append(outcome.value)
                        parked.add(key)
            self.counters_pipeline.prefetched += len(parked)
            span.set_attribute("parked", len(parked))
            span.set_attribute("failed", len(outcomes) - len(parked))
        return [key in parked for key in keys]

    def peek(self, call: BatchCall) -> Optional[Any]:
        """A parked value without consuming it (verify-phase preview)."""
        with self._lock:
            parked = self._table.get(self._call_key(call.target, call.op, call.args))
            return parked[0] if parked else None

    def clear(self) -> None:
        """Drop every parked entry (end of batch; nothing may leak)."""
        with self._lock:
            self._table.clear()

    def __len__(self) -> int:
        with self._lock:
            return sum(len(values) for values in self._table.values())

    @staticmethod
    def _call_key(target, op: str, args) -> tuple:
        endpoint = target.endpoint if isinstance(target, ContactAddress) else target
        if all(type(value) in _KEY_SCALARS for value in args.values()):
            encoded = tuple(
                sorted((name, type(value), value) for name, value in args.items())
            )
        else:
            try:
                encoded = canonical_bytes(dict(args))
            except Exception:
                encoded = repr(sorted(args.items())).encode()
        return (str(endpoint), op, encoded)


class _ObjectPlan:
    """What one batch knows about one object before replay."""

    __slots__ = (
        "url",
        "oid",
        "addresses",
        "elements",
        "session",
        "establish_needed",
        "failed",
    )

    def __init__(self, url: HybridUrl, session) -> None:
        self.url = url
        self.oid = None
        self.addresses: List[ContactAddress] = []
        self.elements: List[str] = []
        self.session = session
        self.establish_needed = True
        #: Left to the per-request replay, which meets the failure
        #: first-hand.
        self.failed = False


class AccessScheduler:
    """Plans, prefetches, and replays one batch of browser requests.

    Owned by a :class:`~repro.proxy.clientproxy.GlobeDocProxy`; its
    :meth:`run` is the engine behind ``proxy.handle_many``. The replay
    delegates every request to ``proxy.handle`` unchanged — the
    scheduler only ever *adds* parked bytes and cache warmth, so a
    pipelined batch and a sequential loop return identical responses.
    """

    def __init__(
        self,
        proxy,
        prefetcher: PrefetchingRpcClient,
        config: Optional[PipelineConfig] = None,
        tracer=None,
        metrics=None,
    ) -> None:
        self.proxy = proxy
        self.prefetcher = prefetcher
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        # ``config`` (no fields) and ``metrics`` are accepted but unused:
        # ``perf/`` still passes both (ROADMAP 1(a)/8(a) remove them).
        self.counters = self.prefetcher.counters_pipeline

    # ------------------------------------------------------------------

    def run(self, urls: Sequence[str]) -> List[Any]:
        """Serve *urls*; responses align with the input order."""
        urls = list(urls)
        responses: List[Any] = [None] * len(urls)
        with self.tracer.span("pipeline.schedule", requests=len(urls)) as span:
            parsed: List[Optional[HybridUrl]] = []
            for url in urls:
                try:
                    hybrid = HybridUrl.parse(url)
                except UrlError:
                    hybrid = None
                parsed.append(hybrid if hybrid is not None and hybrid.is_globedoc else None)

            # Unit = one (object, element) replay; duplicates coalesce.
            units: Dict[Tuple[str, str], List[int]] = {}
            plans: Dict[str, _ObjectPlan] = {}
            for index, hybrid in enumerate(parsed):
                if hybrid is None:
                    continue  # passthrough/bad URLs replay sequentially
                key, session = self.proxy.live_session(hybrid)
                unit = (key, hybrid.element_name)
                units.setdefault(unit, []).append(index)
                if key not in plans:
                    plans[key] = _ObjectPlan(hybrid, session)
                if hybrid.element_name not in plans[key].elements:
                    plans[key].elements.append(hybrid.element_name)

            coalesced = 0
            try:
                self._bind_phase(list(plans.values()))
                self._fetch_phase(list(plans.values()))
                self._verify_phase(list(plans.values()))
                for index, hybrid in enumerate(parsed):
                    if hybrid is None:
                        responses[index] = self.proxy.handle(urls[index])
                for (key, _element), members in units.items():
                    leader = members[0]
                    response = self.proxy.handle(urls[leader])
                    for member in members:
                        responses[member] = response
                    coalesced += len(members) - 1
            finally:
                # Unconsumed parked bytes must not leak into later
                # accesses (a replica may change between batches).
                self.prefetcher.clear()
            self.counters.coalesced_responses += coalesced
            span.set_attribute("objects", len(plans))
            span.set_attribute("units", len(units))
            span.set_attribute("coalesced", coalesced)
        return responses

    # ------------------------------------------------------------------
    # Phase 1: binding as two waves (name lookups, then location lookups)
    # ------------------------------------------------------------------

    def _bind_phase(self, plans: List[_ObjectPlan]) -> None:
        binder = self.proxy.binder
        need_bind: List[_ObjectPlan] = []
        for plan in plans:
            session = plan.session
            if session is not None:
                plan.oid = session.bound.oid
                plan.addresses = [session.bound.address]
                plan.establish_needed = session.verified is None
            else:
                need_bind.append(plan)

        def resolve(plan: _ObjectPlan) -> None:
            plan.oid = binder.resolve_oid(plan.url)

        def locate(plan: _ObjectPlan) -> None:
            plan.addresses = binder.candidates(plan.oid)

        def name_call(plan: _ObjectPlan) -> Optional[BatchCall]:
            if plan.url.oid is not None:
                return None  # an OID URL names no name to resolve
            return binder.resolver.pending_call(plan.url.object_name)

        self._wave(need_bind, name_call, resolve)
        self._wave(need_bind, lambda plan: binder.location.pending_call(plan.oid), locate)

    def _wave(
        self,
        plans: List[_ObjectPlan],
        call_for: Callable[[_ObjectPlan], Optional[BatchCall]],
        replay: Callable[[_ObjectPlan], None],
    ) -> None:
        """Prefetch the call *call_for* names for each plan as one wave,
        then *replay* each plan whose call was parked or that needed
        none; a raise of either marks that plan failed.

        A plan whose prefetch failed is not replayed here: the
        per-request replay meets that failure first-hand, with the one
        retry budget ``handle`` would spend on it. Parking is read for
        every plan before any replay, since duplicate calls share one
        parked answer that the first replay consumes.
        """
        pending: List[Tuple[_ObjectPlan, Optional[BatchCall]]] = []
        for plan in plans:
            if plan.failed:
                continue
            try:
                pending.append((plan, call_for(plan)))
            except Exception:
                plan.failed = True
        parked = iter(
            self.prefetcher.prefetch([call for _plan, call in pending if call is not None])
        )
        for plan, call in pending:
            if call is not None and not next(parked):
                plan.failed = True
        for plan, _call in pending:
            if not plan.failed:
                try:
                    replay(plan)
                except Exception:
                    plan.failed = True

    # ------------------------------------------------------------------
    # Phase 2: one wave of session + element fetches
    # ------------------------------------------------------------------

    def _fetch_phase(self, plans: List[_ObjectPlan]) -> None:
        proxy = self.proxy
        checker = proxy.checker
        identity_needed = len(checker.trust_store) > 0 or proxy.require_identity
        calls: List[BatchCall] = []
        seen_elements = set()
        for plan in plans:
            if plan.failed or plan.oid is None or not plan.addresses:
                continue
            address = plan.addresses[0]
            if plan.establish_needed:
                calls.append(ProxyLR.pending_call(address, "get_public_key"))
                if identity_needed:
                    calls.append(ProxyLR.pending_call(address, "get_identity_certificates"))
                calls.append(ProxyLR.pending_call(address, "get_integrity_certificate"))
            cache = proxy.content_cache
            for element in plan.elements:
                if (plan.oid.hex, element) in seen_elements:
                    continue
                seen_elements.add((plan.oid.hex, element))
                if cache is not None and cache.contains(plan.oid.hex, element):
                    continue  # replay serves it from the content cache
                calls.append(ProxyLR.pending_call(address, "get_element", name=element))
        self.prefetcher.prefetch(calls)

    # ------------------------------------------------------------------
    # Phase 3: batched verification of prefetched certificates
    # ------------------------------------------------------------------

    def _verify_phase(self, plans: List[_ObjectPlan]) -> None:
        checker = self.proxy.checker
        if checker.verification_cache is None:
            return
        pairs = []
        for plan in plans:
            if plan.failed or not plan.establish_needed or not plan.addresses:
                continue
            address = plan.addresses[0]
            der = self.prefetcher.peek(ProxyLR.pending_call(address, "get_public_key"))
            raw = self.prefetcher.peek(
                ProxyLR.pending_call(address, "get_integrity_certificate")
            )
            if der is None or raw is None:
                continue
            try:
                key = PublicKey(der=wire_bytes(der))
                integrity = IntegrityCertificate.from_dict(raw)
            except Exception:
                # Malformed prefetched data: let the replay's real check
                # reject it with the proper error in the proper context.
                continue
            pairs.append((key, integrity))
        if pairs:
            checker.prewarm_certificates(pairs)
