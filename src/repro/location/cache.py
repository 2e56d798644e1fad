"""TTL cache for OID → contact-address mappings (client side).

Deliberately small and explicit: bounded size with oldest-put-first
eviction (refreshing an entry moves it to the back of the queue), TTL
expiry against the injected clock, and explicit invalidation for failed
binds.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.net.address import ContactAddress
from repro.sim.clock import Clock, RealClock

__all__ = ["AddressCache"]


class AddressCache:
    """Bounded TTL cache keyed by OID hex."""

    def __init__(
        self,
        clock: Optional[Clock] = None,
        ttl: float = 60.0,
        max_entries: int = 1024,
    ) -> None:
        if ttl <= 0:
            raise ValueError(f"cache TTL must be positive, got {ttl}")
        if max_entries <= 0:
            raise ValueError(f"cache size must be positive, got {max_entries}")
        self.clock = clock if clock is not None else RealClock()
        self.ttl = ttl
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, Tuple[float, List[ContactAddress]]]" = OrderedDict()

    def get(self, oid_hex: str) -> Optional[List[ContactAddress]]:
        entry = self._entries.get(oid_hex)
        if entry is None:
            return None
        expires, addresses = entry
        if self.clock.now() >= expires:
            del self._entries[oid_hex]
            return None
        return list(addresses)

    def __contains__(self, oid_hex: str) -> bool:
        """Whether *oid_hex* has a live entry."""
        entry = self._entries.get(oid_hex)
        return entry is not None and self.clock.now() < entry[0]

    def put(self, oid_hex: str, addresses: List[ContactAddress]) -> None:
        entry = (self.clock.now() + self.ttl, list(addresses))
        if oid_hex in self._entries:
            # Refresh: overwrite in place and move to the back of the
            # eviction order — re-put entries are the freshest, and an
            # update must never evict an unrelated key.
            self._entries[oid_hex] = entry
            self._entries.move_to_end(oid_hex)
            return
        while len(self._entries) >= self.max_entries:
            self._entries.popitem(last=False)
        self._entries[oid_hex] = entry

    def invalidate(self, oid_hex: str) -> None:
        self._entries.pop(oid_hex, None)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
