"""The client-side address cache."""

from __future__ import annotations

import pytest

from repro.location.cache import AddressCache
from repro.net.address import ContactAddress, Endpoint
from repro.sim.clock import SimClock


def addr(host: str) -> ContactAddress:
    return ContactAddress(endpoint=Endpoint(host=host, service="s"))


class TestCache:
    def test_put_get(self):
        cache = AddressCache(clock=SimClock(0.0), ttl=10.0)
        cache.put("oid1", [addr("a")])
        assert [a.host for a in cache.get("oid1")] == ["a"]

    def test_miss(self):
        cache = AddressCache(clock=SimClock(0.0))
        assert cache.get("ghost") is None

    def test_ttl_expiry(self):
        clock = SimClock(0.0)
        cache = AddressCache(clock=clock, ttl=10.0)
        cache.put("oid1", [addr("a")])
        clock.advance(10.0)
        assert cache.get("oid1") is None

    def test_just_before_expiry(self):
        clock = SimClock(0.0)
        cache = AddressCache(clock=clock, ttl=10.0)
        cache.put("oid1", [addr("a")])
        clock.advance(9.999)
        assert cache.get("oid1") is not None

    def test_invalidate(self):
        cache = AddressCache(clock=SimClock(0.0))
        cache.put("oid1", [addr("a")])
        cache.invalidate("oid1")
        assert cache.get("oid1") is None
        cache.invalidate("oid1")  # idempotent

    def test_eviction_fifo(self):
        cache = AddressCache(clock=SimClock(0.0), max_entries=2)
        cache.put("a", [addr("a")])
        cache.put("b", [addr("b")])
        cache.put("c", [addr("c")])
        assert cache.get("a") is None
        assert cache.get("b") is not None
        assert len(cache) == 2

    def test_returns_copy(self):
        cache = AddressCache(clock=SimClock(0.0))
        cache.put("a", [addr("a")])
        got = cache.get("a")
        got.append(addr("b"))
        assert len(cache.get("a")) == 1

    def test_bad_params(self):
        with pytest.raises(ValueError):
            AddressCache(ttl=0)
        with pytest.raises(ValueError):
            AddressCache(max_entries=0)

    def test_clear(self):
        cache = AddressCache(clock=SimClock(0.0))
        cache.put("a", [addr("a")])
        cache.clear()
        assert len(cache) == 0


class TestRefreshEviction:
    """Regressions for the re-put FIFO bug: a refreshed entry must be
    the freshest, and an in-place update must never evict anything."""

    def test_refresh_moves_entry_to_back_of_queue(self):
        cache = AddressCache(clock=SimClock(0.0), max_entries=2)
        cache.put("a", [addr("a")])
        cache.put("b", [addr("b")])
        cache.put("a", [addr("a2")])  # refresh: now fresher than b
        cache.put("c", [addr("c")])  # evicts the stalest — b, not a
        assert cache.get("b") is None
        assert [x.host for x in cache.get("a")] == ["a2"]
        assert cache.get("c") is not None

    def test_update_at_capacity_evicts_nothing(self):
        cache = AddressCache(clock=SimClock(0.0), max_entries=2)
        cache.put("a", [addr("a")])
        cache.put("b", [addr("b")])
        cache.put("b", [addr("b2")])  # update of an existing key
        assert len(cache) == 2
        assert cache.get("a") is not None  # unrelated entry survives
        assert [x.host for x in cache.get("b")] == ["b2"]

    def test_refresh_renews_ttl(self):
        clock = SimClock(0.0)
        cache = AddressCache(clock=clock, ttl=10.0)
        cache.put("a", [addr("a")])
        clock.advance(8.0)
        cache.put("a", [addr("a")])
        clock.advance(8.0)  # 16 s after first put, 8 s after refresh
        assert cache.get("a") is not None
