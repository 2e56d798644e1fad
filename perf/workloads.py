"""The five workloads.

Each workload says which world it needs and, given a freshly built
world, returns a *session*: long-lived client state, a warm-up, a fixed
list of operations drawn from the seed, a tamper probe and the
counters its layers expose. The runner (``perf/runner.py``) owns all
timing; nothing here reads a clock.

An operation returns ``(kind, payload_bytes, check)`` where *check* is a
zero-argument callable the runner invokes *after* stopping the clock —
the benchmark's own SHA-256 comparison is never part of a measured op.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.crypto.signing import SignedEnvelope
from repro.crypto.verifycache import VerificationCache
from repro.errors import SecurityError
from repro.globedoc.oid import ObjectId
from repro.net.message import Response
from repro.net.rpc import RpcClient
from repro.proxy.checks import SecurityChecker
from repro.proxy.contentcache import ContentCache
from repro.proxy.pipeline import PipelineConfig
from repro.versioning.client import VersionedReader
from repro.versioning.dag import DeltaDag
from repro.versioning.grant import WriterGrant
from repro.versioning.merge import merge_deltas
from repro.versioning.writer import DocumentWriter

from perf.world import (
    BULK,
    NO_CATALOGUE,
    OBJECTSERVER,
    SMALL,
    VERSIONED_OWNER_KEY,
    WRITER_KEYS,
    Catalogue,
    Stack,
    World,
    client_stack,
    trace_checker,
    world_keys,
)

__all__ = ["Workload", "Session", "WORKLOADS", "OpResult", "MIN_ROUNDS", "rounds_in"]

#: Rounds per workload however short the run.
MIN_ROUNDS = 5
#: A round takes 1.2-2.1 s of timed work plus 0.3-0.6 s around it on the
#: sandbox the bounds were measured on.
ROUNDS_PER_SECOND = 0.8


def rounds_in(seconds: float) -> int:
    """Rounds per workload in a run of *seconds*: fixed by the argument,
    never by how fast this machine happens to be."""
    return max(MIN_ROUNDS, round(seconds * ROUNDS_PER_SECOND))


#: (kind, verified payload bytes, deferred correctness check)
OpResult = Tuple[str, int, Callable[[], bool]]


@dataclass
class Session:
    """One round's client side, ready to run."""

    ops: List[Callable[[], OpResult]]
    warmup: List[Callable[[], OpResult]]
    #: Serves one tampered artefact through the same stack; True iff the
    #: stack rejected it (403 / SecurityError).
    probe: Callable[[], bool]
    #: Called between warm-up and the timed ops: snapshot layer counters
    #: so :attr:`counters` covers the timed ops only.
    mark: Callable[[], None] = lambda: None
    #: End-of-round correctness beyond the per-op checks.
    finish: Callable[[], bool] = lambda: True
    #: Exact counts the layers kept during the timed ops (per-seed
    #: reproducible), read after the round.
    counters: Callable[[], Dict[str, float]] = dict


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    catalogue: Catalogue
    #: Operations per round (full, quick).
    ops: Tuple[int, int]
    start: Callable[[World, random.Random, int], Session]
    tcp: bool = False
    durable: bool = False

    def key_indices(self) -> List[int]:
        """Key-pool entries a world of this workload signs with."""
        return world_keys(self.catalogue, versioned=self.durable)

    def session(self, world: World, seed: int, quick: bool) -> Session:
        # Every round of a run replays the same operations: rounds are
        # repeats of one measurement.
        rng = random.Random(f"perf/{self.name}/{seed}")
        return self.start(world, rng, self.ops[1] if quick else self.ops[0])


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------


def _fetch_check(world: World, url: str, response) -> Callable[[], bool]:
    def check() -> bool:
        return (
            response.status == 200
            and hashlib.sha256(response.content).hexdigest() == world.expected[url]
        )

    return check


def _fetch_op(world: World, url: str, proxy: Callable[[], object], kind: str):
    """One verified element fetch through the proxy *proxy()* returns."""

    def op() -> OpResult:
        response = proxy().handle(url)
        return kind, len(response.content), _fetch_check(world, url, response)

    return op


def _element_probe(world: World, proxy_factory: Callable[[], object]) -> Callable[[], bool]:
    """Tamper with one served element and require HTTP 403 from a proxy
    built exactly like the workload's."""

    def probe() -> bool:
        world.tamper(0, 0)
        try:
            response = proxy_factory().handle(world.catalogue.url(0, 0))
        finally:
            world.untamper()
        return response.status == 403 and response.security_failure == "AuthenticityError"

    return probe


def _uniform_urls(world: World, rng: random.Random, count: int) -> List[str]:
    cat = world.catalogue
    return [
        cat.url(rng.randrange(cat.objects), rng.randrange(cat.elements))
        for _ in range(count)
    ]


# ----------------------------------------------------------------------
# cold_bind
# ----------------------------------------------------------------------


def _cold_stack(world: World, **kwargs) -> Stack:
    # A cold client shares nothing with earlier ones — including the
    # process-wide parsed-envelope pool, which on loopback would
    # otherwise hand it the *server's* already-encoded certificates.
    SignedEnvelope.clear_intern_pool()
    return client_stack(world, verification_cache=VerificationCache(), **kwargs)


def _start_cold_bind(world, rng, count) -> Session:
    def cold_proxy():
        return _cold_stack(world).proxy

    urls = _uniform_urls(world, rng, count + 20)
    ops = [_fetch_op(world, url, cold_proxy, "bind") for url in urls]
    return Session(ops=ops[20:], warmup=ops[:20], probe=_element_probe(world, cold_proxy))


# ----------------------------------------------------------------------
# warm_bulk
# ----------------------------------------------------------------------


def _start_warm_bulk(world, rng, count) -> Session:
    proxy = client_stack(world).proxy
    cat = world.catalogue
    warm = [cat.url(obj, 0) for obj in range(cat.objects)] * 2  # binds every session
    urls = _uniform_urls(world, rng, count)
    return Session(
        ops=[_fetch_op(world, url, lambda: proxy, "read") for url in urls],
        warmup=[_fetch_op(world, url, lambda: proxy, "read") for url in warm],
        probe=_element_probe(world, lambda: client_stack(world).proxy),
    )


# ----------------------------------------------------------------------
# cached_zipf
# ----------------------------------------------------------------------

ZIPF_EXPONENT = 0.9
CACHE_SHARE = 0.20
# The checker syncs with the feed on its first check (in the warm-up) and
# judges every later access against that view: a poll inside the timed
# ops would come by the wall clock, and RPC counts would stop repeating.
REVOCATION_MAX_STALENESS = 3600.0
ZIPF_WARMUP = 512


def _zipf_urls(world: World, rng: random.Random, count: int) -> List[str]:
    cat = world.catalogue
    population = [
        cat.url(obj, elem) for obj in range(cat.objects) for elem in range(cat.elements)
    ]
    rng.shuffle(population)  # which elements are popular depends on the seed
    weights = [1.0 / (rank**ZIPF_EXPONENT) for rank in range(1, len(population) + 1)]
    return rng.choices(population, weights=weights, k=count)


def _start_cached_zipf(world, rng, count) -> Session:
    def build() -> Stack:
        return client_stack(
            world,
            verification_cache=VerificationCache(),
            content_cache=ContentCache(
                clock=world.clock,
                max_bytes=int(world.catalogue.total_bytes * CACHE_SHARE),
            ),
            revocation_max_staleness=REVOCATION_MAX_STALENESS,
        )

    stack = build()
    cache, revocation = stack.content_cache, stack.revocation
    base: Dict[str, float] = {}
    ops = [
        _fetch_op(world, url, lambda: stack.proxy, "read")
        for url in _zipf_urls(world, rng, ZIPF_WARMUP + count)
    ]

    def mark() -> None:
        base.update(
            hits=cache.hits, misses=cache.misses, entries=len(cache),
            refreshes=revocation.stats.refreshes,
        )

    def counters() -> Dict[str, float]:
        hits = cache.hits - base["hits"]
        misses = cache.misses - base["misses"]
        # Every miss stores one element; whatever the cache did not grow
        # by was evicted (nothing expires within a round).
        evictions = misses - (len(cache) - base["entries"])
        return {
            "contentcache_hits": hits,
            "contentcache_lookups": hits + misses,
            "contentcache_evictions": evictions,
            "revocation_refreshes": revocation.stats.refreshes - base["refreshes"],
        }

    return Session(
        ops=ops[ZIPF_WARMUP:],
        warmup=ops[:ZIPF_WARMUP],
        probe=_element_probe(world, lambda: build().proxy),
        mark=mark,
        counters=counters,
    )


# ----------------------------------------------------------------------
# tcp_page
# ----------------------------------------------------------------------


def _page_urls(world: World, obj: int) -> List[str]:
    return [world.catalogue.url(obj, elem) for elem in range(world.catalogue.elements)]


def _page_check(world: World, urls: List[str], responses) -> Callable[[], bool]:
    def check() -> bool:
        return len(responses) == len(urls) and all(
            _fetch_check(world, url, response)()
            for url, response in zip(urls, responses)
        )

    return check


def _start_tcp_page(world, rng, count, pipeline=PipelineConfig()) -> Session:
    totals = {"hits": 0, "misses": 0}

    def make_op(obj: int) -> Callable[[], OpResult]:
        urls = _page_urls(world, obj)

        def op() -> OpResult:
            stack = _cold_stack(world, pipeline=pipeline)
            responses = stack.proxy.handle_many(urls)
            if stack.prefetcher is not None:
                counters = stack.prefetcher.counters_pipeline
                totals["hits"] += counters.prefetch_hits
                totals["misses"] += counters.prefetch_misses
            size = sum(len(response.content) for response in responses)
            return "page", size, _page_check(world, urls, responses)

        return op

    objects = [rng.randrange(world.catalogue.objects) for _ in range(count + 10)]

    return Session(
        ops=[make_op(obj) for obj in objects[10:]],
        warmup=[make_op(obj) for obj in objects[:10]],
        probe=_element_probe(world, lambda: _cold_stack(world, pipeline=pipeline).proxy),
        mark=lambda: totals.update(hits=0, misses=0),
        counters=lambda: {
            "prefetch_hits": totals["hits"],
            "prefetch_lookups": totals["hits"] + totals["misses"],
        },
    )


def start_tcp_page_sequential(world, rng, count) -> Session:
    """The same pages with no pipeline installed (``handle_many`` falls
    back to a sequential loop): the denominator of ``pipeline_speedup``."""
    return _start_tcp_page(world, rng, count, pipeline=None)


# ----------------------------------------------------------------------
# versioned_rw
# ----------------------------------------------------------------------

SEED_DELTAS = 64
READS_PER_WRITE = 4
WRITE_BYTES = 1024
VERSIONED_ELEMENTS = 8


class _TamperedFetch:
    """Transport wrapper that corrupts the first delta of every
    ``versioning.fetch`` answer after it left the server."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.stats = inner.stats

    def request(self, endpoint, frame: bytes) -> bytes:
        raw = self.inner.request(endpoint, frame)
        answer = Response.from_bytes(raw)
        if answer.ok and isinstance(answer.value, dict) and answer.value.get("deltas"):
            op = answer.value["deltas"][0]["envelope"]["payload"]["body"]["ops"][0]
            op["content"] = b"tampered " + bytes(op["content"])[9:]
            return Response.success(answer.value).to_bytes()
        return raw


def _start_versioned_rw(world, rng, cycles) -> Session:
    pool, clock, spans = world.pool, world.clock, world.spans
    owner_keys = pool.key(VERSIONED_OWNER_KEY)
    oid = ObjectId.from_public_key(owner_keys.public)
    rpc = RpcClient(world.transport)
    rpc.call(OBJECTSERVER, "versioning.register", object_key_der=owner_keys.public.der)
    writers = []
    for index, key_index in enumerate(WRITER_KEYS):
        keys = pool.key(key_index)
        writer_id = f"writer{index}"
        grant = WriterGrant.issue(
            owner_keys, oid, writer_id, keys.public, granted_at=clock.now()
        )
        rpc.call(
            OBJECTSERVER, "versioning.put_grant", oid_hex=oid.hex, grant=grant.to_dict()
        )
        writers.append(DocumentWriter(keys, writer_id, oid, clock))
        if spans is not None:
            spans.patch(writers[-1], "put", "versioning.delta_build")
    #: The writers' shared local view: every delta ever authored.
    view = DeltaDag()
    latest: Dict[str, bytes] = {}
    totals = {"written_bytes": 0}

    def write(index: int) -> OpResult:
        writer = writers[index % len(writers)]
        name = f"element-{rng.randrange(VERSIONED_ELEMENTS)}"
        content = rng.randbytes(WRITE_BYTES)
        delta = writer.put(view, name, content)
        answer = rpc.call(
            OBJECTSERVER, "versioning.publish_delta", oid_hex=oid.hex, delta=delta.to_dict()
        )
        latest[name] = content
        totals["written_bytes"] += len(content)
        return "write", len(content), lambda: bool(answer["added"])

    # Publishing this world's content — the counterpart of the catalogue
    # publish in the other worlds, so part of set-up, not of warm-up.
    seeded_ok = all(write(index)[2]() for index in range(SEED_DELTAS))

    checker = SecurityChecker(clock, verification_cache=VerificationCache())
    reader = VersionedReader(rpc, checker)
    if spans is not None:
        spans.patch(rpc, "call", "net.rpc.call")
        trace_checker(spans, checker)
        spans.patch(checker.verification_cache, "verify", "crypto.verifycache.verify", True)

    def read() -> OpResult:
        merged = reader.read(OBJECTSERVER, oid).merged
        size = sum(element.size for element in merged.elements.values())

        def check() -> bool:
            # Shared view → strictly increasing Lamport clocks → the last
            # write to each element must be what every later read serves.
            return all(
                merged.elements[name].content == content
                for name, content in latest.items()
            )

        return "read", size, check

    def probe() -> bool:
        tampered = VersionedReader(
            RpcClient(_TamperedFetch(world.transport)), SecurityChecker(clock)
        )
        try:
            tampered.read(OBJECTSERVER, oid)
        except SecurityError:
            return True
        return False

    def finish() -> bool:
        served = reader.read(OBJECTSERVER, oid).merged
        merged = merge_deltas(view.deltas, oid_hex=oid.hex)
        return seeded_ok and served.digest_hex == merged.digest_hex

    base: Dict[str, float] = {}
    store = world.services.object_server.versioning.store

    def mark() -> None:
        base.update(
            seq=store.seq,
            journal_bytes=os.path.getsize(store.wal.path),
            written=totals["written_bytes"],
        )

    def counters() -> Dict[str, float]:
        return {
            "appends": store.seq - base["seq"],
            "writes": cycles,
            "journal_bytes": os.path.getsize(store.wal.path) - base["journal_bytes"],
            "user_bytes": totals["written_bytes"] - base["written"],
        }

    ops: List[Callable[[], OpResult]] = []
    for cycle in range(cycles):
        ops.append(lambda index=SEED_DELTAS + cycle: write(index))
        ops.extend([read] * READS_PER_WRITE)
    return Session(
        ops=ops,
        warmup=[read],
        probe=probe,
        mark=mark,
        finish=finish,
        counters=counters,
    )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="cold_bind",
            why="Fig. 4 case: every op is a fresh client doing the whole Fig. 3 "
            "path in-process; RSA verify, naming, location and per-message "
            "cost dominate, payload bytes do not.",
            catalogue=SMALL,
            ops=(900, 60),
            start=_start_cold_bind,
        ),
        Workload(
            name="warm_bulk",
            why="Bound sessions reading 256 KiB elements: one RPC and one hash "
            "per op, no RSA; per-byte encode/digest/copy cost dominates - the "
            "mirror image of cold_bind.",
            catalogue=BULK,
            ops=(450, 40),
            start=_start_warm_bulk,
        ),
        Workload(
            name="cached_zipf",
            why="Zipf(0.9) over 256 elements with a content cache of 20 % of "
            "the bytes: hits bypass net/server and stress proxy bookkeeping, "
            "cache eviction and the revocation check.",
            catalogue=SMALL,
            ops=(10000, 600),
            start=_start_cached_zipf,
        ),
        Workload(
            name="tcp_page",
            why="Fresh client loading an 8-element page through handle_many "
            "over real loopback TCP to a server process: the only workload "
            "where sockets, call_many threads and the pipeline do work.",
            catalogue=SMALL,
            ops=(250, 12),
            start=_start_tcp_page,
            tcp=True,
        ),
        Workload(
            name="versioned_rw",
            why="One durable (fsync) write then four verified multi-writer "
            "reads per cycle on a DAG growing from 64 deltas: storage and "
            "versioning do the work; a gain for reads that costs writes shows.",
            catalogue=NO_CATALOGUE,
            ops=(80, 4),
            start=_start_versioned_rw,
            durable=True,
        ),
    )
}
