"""Verified-element cache for the client proxy.

The integrity certificate makes client caching *safe by construction*:
a cached element can be served without contacting any replica for as
long as its certificate row is valid — the exact guarantee the paper's
freshness property provides. The cache stores only elements that
already passed every security check, keyed by (OID, element name), and
expires them at their per-element ``expires_at`` (never later, even if
the configured TTL is longer).

This is the mechanism behind Squid-style proxy caching in the GlobeDoc
world — with the crucial difference that staleness is bounded by the
*owner's* signed interval, not by a cache operator's configuration.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.globedoc.element import PageElement
from repro.obs import NOOP_TRACER
from repro.sim.clock import Clock, RealClock

__all__ = ["ContentCache", "CachedElement"]


@dataclass(frozen=True)
class CachedElement:
    """A verified element plus its hard expiry."""

    element: PageElement
    expires_at: float
    cached_at: float


class ContentCache:
    """Bounded (OID, name) → verified element cache.

    ``max_bytes`` bounds total cached content; eviction is LRU. The
    effective lifetime of an entry is ``min(cached_at + ttl,
    certificate expires_at)`` — the owner's freshness constraint always
    wins. Table operations are serialized by an internal lock, so
    callers may share one cache across threads; the access pipeline
    itself, batched or not, runs on the calling thread.

    Lookups and inserts run in *clock*'s ``compute()`` region (as
    :class:`~repro.proxy.checks.SecurityChecker`'s checks do), so on a
    simulated host ``cache.get``/``cache.put`` spans carry honest
    (small) durations in the critical-path profile.
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        ttl: float = 300.0,
        max_bytes: int = 64 * 1024 * 1024,
        tracer=None,
    ) -> None:
        if ttl <= 0:
            raise ValueError(f"TTL must be positive, got {ttl}")
        if max_bytes <= 0:
            raise ValueError(f"cache size must be positive, got {max_bytes}")
        self.clock = clock if clock is not None else RealClock()
        self.ttl = ttl
        self.max_bytes = max_bytes
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self._entries: "OrderedDict[Tuple[str, str], CachedElement]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------

    def get(self, oid_hex: str, name: str) -> Optional[PageElement]:
        """A still-valid verified element, or None."""
        with self.tracer.span("cache.get", element=name) as span:
            with self.clock.compute():
                element = self._get(oid_hex, name)
            span.set_attribute("hit", element is not None)
            return element

    def _get(self, oid_hex: str, name: str) -> Optional[PageElement]:
        key = (oid_hex, name)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            now = self.clock.now()
            if now > entry.expires_at or now > entry.cached_at + self.ttl:
                self._evict(key)
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry.element

    def contains(self, oid_hex: str, name: str) -> bool:
        """True iff a still-valid entry exists — a pure peek.

        Unlike :meth:`get` this neither counts as a hit/miss nor bumps
        the LRU position: the pipeline scheduler uses it to decide which
        fetches to skip without distorting cache statistics.
        """
        with self._lock:
            entry = self._entries.get((oid_hex, name))
            if entry is None:
                return False
            now = self.clock.now()
            return not (now > entry.expires_at or now > entry.cached_at + self.ttl)

    def put(self, oid_hex: str, element: PageElement, expires_at: float) -> None:
        """Insert a *verified* element with its certificate expiry.

        Oversized elements (bigger than the whole cache) are skipped, as
        are already-expired entries — they could never be served, and
        would occupy bytes (evicting live entries) until a ``get``
        happened to touch them.
        """
        with self.tracer.span(
            "cache.put", element=element.name, size=element.size
        ) as span:
            if element.size > self.max_bytes:
                span.set_attribute("stored", False)
                return
            if expires_at <= self.clock.now():
                span.set_attribute("stored", False)
                return
            key = (oid_hex, element.name)
            with self.clock.compute(), self._lock:
                self._evict(key)
                while self._bytes + element.size > self.max_bytes and self._entries:
                    self._evict(next(iter(self._entries)))
                self._entries[key] = CachedElement(
                    element=element, expires_at=expires_at, cached_at=self.clock.now()
                )
                self._bytes += element.size
            span.set_attribute("stored", True)

    def evict_expired(self) -> int:
        """Sweep out every entry past its certificate expiry or TTL.

        The proxy runs this periodically so dead entries stop holding
        cache bytes between accesses; returns entries removed.
        """
        now = self.clock.now()
        with self._lock:
            doomed = [
                key
                for key, entry in self._entries.items()
                if now > entry.expires_at or now > entry.cached_at + self.ttl
            ]
            for key in doomed:
                self._evict(key)
            return len(doomed)

    def invalidate_object(self, oid_hex: str) -> int:
        """Drop every cached element of one object (e.g. on a version
        bump the client learned about); returns entries removed."""
        with self._lock:
            doomed = [key for key in self._entries if key[0] == oid_hex]
            for key in doomed:
                self._evict(key)
            return len(doomed)

    def invalidate_element(self, oid_hex: str, name: str) -> int:
        """Drop one (OID, element) entry — an element-scoped revocation
        purge; returns entries removed (0 or 1)."""
        with self._lock:
            if (oid_hex, name) in self._entries:
                self._evict((oid_hex, name))
                return 1
            return 0

    def _evict(self, key: Tuple[str, str]) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._bytes -= entry.element.size

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def bytes_used(self) -> int:
        with self._lock:
            return self._bytes

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
