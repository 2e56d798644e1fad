"""Shared caches under real threads: the pipeline's safety assumptions.

The concurrent access pipeline shares one ``VerificationCache`` and one
``ContentCache`` across request threads. These tests hammer both from
many threads at once and check the invariants the pipeline relies on:
no lost updates corrupt the tables, reads only ever observe values that
were actually stored, and the bookkeeping (entry counts, byte totals,
hit/miss stats) stays consistent once the threads land.
"""

from __future__ import annotations

import threading

from repro.crypto.verifycache import VerificationCache
from repro.globedoc.element import PageElement
from repro.proxy.contentcache import ContentCache
from repro.sim.clock import SimClock

THREADS = 8
ROUNDS = 50


def run_threads(worker):
    """Start THREADS copies of *worker(i)* behind one barrier; join all."""
    barrier = threading.Barrier(THREADS)
    failures = []

    def wrapped(i):
        barrier.wait(timeout=10.0)
        try:
            worker(i)
        except Exception as exc:  # surfaced after join, with context
            failures.append((i, exc))

    threads = [
        threading.Thread(target=wrapped, args=(i,), daemon=True)
        for i in range(THREADS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30.0)
    assert not failures, failures


class TestVerificationCacheThreads:
    def test_racing_record_and_lookup_keeps_stats_consistent(self, shared_keys):
        cache = VerificationCache(max_entries=64)
        payloads = [b"payload-%d" % n for n in range(16)]
        signatures = [b"sig-%d" % n for n in range(16)]

        def worker(i):
            for round_no in range(ROUNDS):
                n = (i + round_no) % 16
                cache.record(
                    shared_keys.public, signatures[n], payloads[n]
                )
                assert cache.lookup(
                    shared_keys.public, signatures[n], payloads[n]
                )
                # A key nobody records must never report a hit.
                assert not cache.lookup(
                    shared_keys.public, b"ghost-sig", payloads[n]
                )

        run_threads(worker)
        stats = cache.stats
        assert stats.hits == THREADS * ROUNDS
        assert stats.misses == THREADS * ROUNDS
        assert len(cache._entries) <= cache.max_entries

    def test_eviction_pressure_under_threads(self, shared_keys):
        cache = VerificationCache(max_entries=8)

        def worker(i):
            for round_no in range(ROUNDS):
                signature = b"sig-%d-%d" % (i, round_no)
                cache.record(shared_keys.public, signature, b"payload")
                cache.lookup(shared_keys.public, signature, b"payload")

        run_threads(worker)
        assert len(cache._entries) <= 8

    def test_expiry_races_do_not_resurrect_entries(self, shared_keys):
        cache = VerificationCache()
        cache.record(
            shared_keys.public, b"sig", b"payload", expires_at=10.0
        )

        def worker(i):
            for _ in range(ROUNDS):
                # Past expiry: every thread must see a miss, never a
                # stale hit, no matter who evicts first.
                assert not cache.lookup(
                    shared_keys.public, b"sig", b"payload", now=20.0
                )

        run_threads(worker)


class TestContentCacheThreads:
    def test_racing_put_and_get_returns_only_stored_bytes(self):
        clock = SimClock()
        cache = ContentCache(clock=clock, ttl=1000.0)
        contents = {f"e{n}.html": b"content-%d" % n for n in range(8)}

        def worker(i):
            for round_no in range(ROUNDS):
                name = f"e{(i + round_no) % 8}.html"
                cache.put(
                    "oid-1", PageElement(name, contents[name]), expires_at=1000.0
                )
                element = cache.get("oid-1", name)
                if element is not None:
                    assert element.content == contents[name]

        run_threads(worker)
        assert len(cache) <= len(contents)
        assert cache.bytes_used == sum(
            len(cache.get("oid-1", name).content)
            for name in contents
            if cache.get("oid-1", name) is not None
        )

    def test_invalidation_races_with_readers(self):
        clock = SimClock()
        cache = ContentCache(clock=clock, ttl=1000.0)
        element = PageElement("index.html", b"<html>genuine</html>")

        def worker(i):
            for _ in range(ROUNDS):
                if i % 2 == 0:
                    cache.put("oid-1", element, expires_at=1000.0)
                    got = cache.get("oid-1", "index.html")
                    if got is not None:
                        assert got.content == element.content
                else:
                    cache.invalidate_object("oid-1")
                    cache.evict_expired()

        run_threads(worker)
        # Post-race bookkeeping is coherent either way.
        remaining = cache.get("oid-1", "index.html")
        if remaining is None:
            assert len(cache) == 0
        else:
            assert len(cache) == 1

    def test_byte_budget_respected_under_threads(self):
        clock = SimClock()
        cache = ContentCache(clock=clock, ttl=1000.0, max_bytes=4096)

        def worker(i):
            for round_no in range(ROUNDS):
                name = f"big-{i}-{round_no}.bin"
                cache.put(
                    "oid-1", PageElement(name, bytes(512)), expires_at=1000.0
                )
                cache.get("oid-1", name)

        run_threads(worker)
        assert cache.bytes_used <= 4096
