"""Micro-ladder: each layer's public function called directly.

One rung per primitive the workloads lean on, on inputs shaped exactly
like theirs (a ``naming.resolve_step`` exchange, a 256 KiB element
response, an integrity certificate, a 144-delta DAG). Every rung
reports the median per-call cost over a few batches sized to ~30 ms, so
the whole ladder stays near three seconds.

The rungs predict which end-to-end metric a layer-level change should
move (see ``perf/README.md``); they are not themselves evidence of a
gain.
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
from functools import partial
from time import perf_counter
from typing import Callable, Dict

from repro.crypto.batch import BatchItem, verify_batch
from repro.crypto.hashes import SHA1
from repro.crypto.verifycache import VerificationCache
from repro.globedoc.element import PageElement
from repro.globedoc.integrity import IntegrityCertificate
from repro.globedoc.oid import ObjectId
from repro.net.address import Endpoint
from repro.net.message import Request, Response
from repro.net.tcpnet import TcpEndpointServer, TcpTransport
from repro.sim.clock import RealClock
from repro.storage.store import DurableStore
from repro.util.encoding import from_wire, to_wire
from repro.versioning.dag import DeltaDag
from repro.versioning.merge import merge_deltas
from repro.versioning.writer import DocumentWriter

from perf.keypool import KeyPool
from perf.world import BULK, SMALL, VERSIONED_OWNER_KEY, WRITER_KEYS

__all__ = ["run_ladder"]

BATCH_SECONDS = 0.03
BATCHES = 5
LADDER_DELTAS = 144  # the DAG size a versioned_rw round ends at


def _batched_us(fn: Callable[[], object], batch_seconds: float) -> float:
    """Median per-call µs over ``BATCHES`` batches of ~*batch_seconds*."""
    started = perf_counter()
    fn()
    once = max(perf_counter() - started, 1e-7)
    calls = max(1, int(batch_seconds / once))
    samples = []
    for _ in range(BATCHES):
        started = perf_counter()
        for _ in range(calls):
            fn()
        samples.append((perf_counter() - started) / calls * 1e6)
    return statistics.median(samples)


def run_ladder(pool: KeyPool, seed: int, work_root: str, quick: bool = False) -> Dict[str, float]:
    """Run every rung; returns per-layer metric name → value."""
    _per_call_us = partial(
        _batched_us, batch_seconds=BATCH_SECONDS / 30 if quick else BATCH_SECONDS
    )
    clock = RealClock()
    out: Dict[str, float] = {}

    # -- inputs shaped like the workloads' ------------------------------
    owner = pool.key(VERSIONED_OWNER_KEY)
    oid = ObjectId.from_public_key(owner.public)
    small_element = PageElement(SMALL.element_name(0), SMALL.content(seed, 0, 0))
    bulk_element = PageElement(BULK.element_name(0), BULK.content(seed, 0, 0))
    kib = BULK.size / 1024.0
    integrity = IntegrityCertificate.for_elements(
        owner, oid.hex, [small_element], expires_at=clock.now() + 3600.0, version=1,
        issued_at=clock.now(),
    )
    envelope = integrity.certificate.envelope
    small_request = Request(
        op="naming.resolve_step", args={"name": SMALL.object_name(0), "zone_path": "nl"}
    )
    small_value = integrity.to_dict()  # ≈ the 2 KB key+certificate exchange
    small_frame = Response.success(small_value).to_bytes()
    bulk_value = bulk_element.to_dict()
    bulk_frame = Response.success(bulk_value).to_bytes()

    # -- util ------------------------------------------------------------
    out["util.encode_small_us"] = _per_call_us(lambda: to_wire(small_value))
    out["util.decode_small_us"] = _per_call_us(lambda: from_wire(small_frame))
    out["util.encode_us_per_kib"] = _per_call_us(lambda: to_wire(bulk_value)) / kib
    out["util.decode_us_per_kib"] = _per_call_us(lambda: from_wire(bulk_frame)) / kib

    # -- crypto ----------------------------------------------------------
    signed = envelope.signed_bytes
    out["crypto.rsa_verify_us"] = _per_call_us(
        lambda: owner.public.verify(envelope.signature, signed)
    )
    out["crypto.rsa_sign_us"] = _per_call_us(lambda: owner.sign(signed))
    out["crypto.sha1_us_per_kib"] = _per_call_us(lambda: SHA1.digest(bulk_element.content)) / kib
    warm = VerificationCache()
    envelope.verify(owner.public, cache=warm)
    out["crypto.verifycache_hit_us"] = _per_call_us(
        lambda: envelope.verify(owner.public, cache=warm)
    )
    page = []
    for index in range(SMALL.elements):
        keys = pool.key(WRITER_KEYS[index % len(WRITER_KEYS)])
        cert = IntegrityCertificate.for_elements(
            keys, ObjectId.from_public_key(keys.public).hex,
            [PageElement(SMALL.element_name(index), SMALL.content(seed, 1, index))],
            expires_at=clock.now() + 3600.0, version=1, issued_at=clock.now(),
        )
        page.append(BatchItem(key=keys.public, envelope=cert.certificate.envelope))
    out["crypto.verify_batch_us_per_item"] = _per_call_us(
        lambda: verify_batch(page, cache=VerificationCache())
    ) / len(page)

    # -- net -------------------------------------------------------------
    def message_roundtrip() -> None:
        Request.from_bytes(small_request.to_bytes())
        Response.from_bytes(Response.success(small_value).to_bytes())

    out["net.message_roundtrip_us"] = _per_call_us(message_roundtrip)
    echo = TcpEndpointServer()
    echo.register("echo", lambda frame: frame)
    echo.start()
    transport = TcpTransport(directory={"echo-host": echo.address})
    try:
        target = Endpoint("echo-host", "echo")
        out["net.tcp_request_small_us"] = _per_call_us(
            lambda: transport.request(target, small_frame)
        )
        out["net.tcp_request_256k_us"] = _per_call_us(
            lambda: transport.request(target, bulk_frame)
        )
    finally:
        transport.close()
        echo.stop()

    # -- versioning ------------------------------------------------------
    writers = [
        DocumentWriter(pool.key(index), f"writer{n}", oid, clock)
        for n, index in enumerate(WRITER_KEYS)
    ]
    view = DeltaDag()
    for index in range(LADDER_DELTAS):
        writers[index % len(writers)].put(
            view, f"element-{index % 8}", SMALL.content(seed, 2, index % 8)[:1024]
        )
    deltas = view.deltas
    out["versioning.delta_verify_us"] = _per_call_us(lambda: deltas[-1].verify(oid))
    out["versioning.dag_add_all_us_per_delta"] = (
        _per_call_us(lambda: DeltaDag().add_all(deltas)) / len(deltas)
    )
    out["versioning.merge_us_per_delta"] = (
        _per_call_us(lambda: merge_deltas(deltas, oid_hex=oid.hex)) / len(deltas)
    )

    # -- storage ---------------------------------------------------------
    record = {"op": "delta", "oid": oid.hex, "delta": deltas[-1].to_dict()}
    os.makedirs(work_root, exist_ok=True)
    directory = tempfile.mkdtemp(prefix="ladder-", dir=work_root)
    try:
        for name, sync in (("storage.append_fsync_us", True), ("storage.append_nosync_us", False)):
            store = DurableStore(
                os.path.join(directory, name), sync=sync, compact_every=None
            )
            try:
                out[name] = _per_call_us(lambda: store.append(record))
            finally:
                store.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return out
