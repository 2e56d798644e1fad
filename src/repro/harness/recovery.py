"""Recovery bench: kill/restart the testbed, gate the fail-closed story.

The durability subsystem (``repro.storage``) exists so that a restart is
an *operational* event, not a security event. This harness makes that
claim measurable. Four scenarios, each a gate:

* **Replica recovery** — publish documents into a durable testbed, kill
  it (close the stores; nothing survives but the disk), restart over the
  same directory. Every replica must come back **re-verified** (OID
  self-certification, integrity signature, element hashes — recovered
  bytes are untrusted until proven, exactly like fetched bytes), naming
  and location must answer again, clients must fetch byte-identical
  content, and the write path must accept new publishes.
* **Revocation resume** — a client whose checker persisted its cursor is
  restarted together with the world. It must reject a known-revoked OID
  *immediately from disk*, before its first feed RPC — the zero
  fail-open window — while still refusing to vouch for clean OIDs until
  a fresh sync. The recovered feed must report its pre-crash head (no
  regression), and a feed that *did* lose its log must be detected by
  the consumer as a :class:`~repro.errors.FeedRegressionError`.
* **Torn tail** — garbage appended to the server journal (a crash
  mid-write) must cost nothing but the torn bytes: every valid record
  recovers, the file heals, serving continues.
* **Tamper fail-closed** — a CRC-valid rewrite of stored replica bytes
  (the attack checksums cannot see) must abort recovery with
  :class:`~repro.errors.RecoveryIntegrityError`, never serve.

Run with ``python -m repro.harness recovery [--quick]``; writes
``BENCH_recovery.json`` for the CI gate.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.errors import FeedRegressionError, RecoveryIntegrityError, TransportError
from repro.harness.experiment import Testbed
from repro.harness.kernel import BenchTarget, Criterion, gate
from repro.revocation.checker import RevocationChecker
from repro.revocation.feed import RevocationFeed
from repro.revocation.statement import RevocationStatement
from repro.storage.wal import FRAME_HEADER, WriteAheadLog

__all__ = [
    "ReplicaRecovery",
    "RevocationResume",
    "TornTail",
    "TamperFailClosed",
    "RecoveryReport",
    "run_recovery",
    "deface_wal",
    "criteria",
    "TARGET",
]

MAX_STALENESS = 60.0


@dataclass
class ReplicaRecovery:
    """Kill/restart over the same data directory: what came back."""

    documents: int = 0
    recovered_replicas: int = 0
    reverified_replicas: int = 0
    naming_records_recovered: int = 0
    location_addresses_recovered: int = 0
    restart_cycles: int = 0
    accesses_after_restart: int = 0
    accesses_ok: int = 0
    content_intact: bool = False
    post_restart_publish_ok: bool = False


@dataclass
class RevocationResume:
    """The consumer cursor across a restart: the fail-open window gate."""

    feed_head_before: int = 0
    feed_head_after: int = 0
    feed_statements_recovered: int = 0
    cursor_statements_recovered: int = 0
    revoked_rejected_from_disk: bool = False
    refreshes_at_rejection: int = -1
    rejection_error: str = ""
    staleness_reset: bool = False
    clean_access_ok_after_sync: bool = False
    head_after_sync: int = 0
    regression_detected: bool = False


@dataclass
class TornTail:
    """Crash mid-append: only the torn suffix may be lost."""

    torn_bytes_dropped: int = 0
    recovered_replicas: int = 0
    expected_replicas: int = 0
    accesses_ok: int = 0
    accesses_after_restart: int = 0


@dataclass
class TamperFailClosed:
    """CRC-valid tampering at rest must abort recovery, never serve."""

    failed_closed: bool = False
    error_type: str = ""
    error_excerpt: str = ""


@dataclass
class RecoveryReport:
    """Everything the CI gate and the bench-report digest consume."""

    replica: ReplicaRecovery = field(default_factory=ReplicaRecovery)
    revocation: RevocationResume = field(default_factory=RevocationResume)
    torn: TornTail = field(default_factory=TornTail)
    tamper: TamperFailClosed = field(default_factory=TamperFailClosed)

    def to_dict(self) -> dict:
        return asdict(self)


# ----------------------------------------------------------------------
# World construction
# ----------------------------------------------------------------------


def _documents(quick: bool, seed: int) -> Dict[str, Dict[str, bytes]]:
    """Deterministic per-seed content: name → {element: bytes}."""
    count = 2 if quick else 5
    documents = {}
    for i in range(count):
        name = f"vu.nl/recovery-{seed}-{i}"
        documents[name] = {
            "index.html": f"<html>doc {i} seed {seed}</html>".encode(),
            "data.bin": bytes((i * 37 + j * 11 + seed) % 256 for j in range(64)),
        }
    return documents


def _populate(testbed: Testbed, contents: Dict[str, Dict[str, bytes]]) -> None:
    for name, elements in contents.items():
        testbed.publish(
            testbed.document_owner(name, elements), validity=7 * 24 * 3600.0
        )


def _keys():
    from repro.crypto.keys import KeyPair

    return KeyPair.generate(1024)


def _restart(testbed: Testbed, data_dir: str, damage=None) -> Testbed:
    """The kill/restart primitive: close the stores, rebuild the world
    from nothing but the directory (clock and zone keys are the
    operator's configuration and survive out of band). ``damage()``, if
    given, is what happens to the directory while the world is down."""
    zone_keys = testbed.zone_keys
    clock = testbed.clock
    testbed.close_stores()
    if damage is not None:
        damage()
    return Testbed(
        clock=clock, data_dir=data_dir, storage_sync=False, zone_keys=zone_keys
    )


def _verify_serving(
    testbed: Testbed, contents: Dict[str, Dict[str, bytes]], host: str
) -> tuple:
    """Fetch every element through a fresh client; count + byte-compare."""
    from repro.globedoc.urls import HybridUrl

    stack = testbed.client_stack(host)
    attempted = ok = 0
    intact = True
    for name, elements in contents.items():
        for element_name, expected in elements.items():
            attempted += 1
            response = stack.proxy.handle(HybridUrl.for_name(name, element_name).raw)
            if response.ok:
                ok += 1
                if response.content != expected:
                    intact = False
            else:
                intact = False
    return attempted, ok, intact


# ----------------------------------------------------------------------
# Scenario 1: replica recovery
# ----------------------------------------------------------------------


def _run_replica_recovery(quick: bool, seed: int, data_dir: str) -> ReplicaRecovery:
    contents = _documents(quick, seed)
    testbed = Testbed(data_dir=data_dir, storage_sync=False)
    _populate(testbed, contents)
    testbed.compact_stores()  # what restarts read is a rewritten log

    result = ReplicaRecovery(documents=len(contents))
    cycles = 1 if quick else 3
    for _ in range(cycles):
        testbed = _restart(testbed, data_dir)
        result.restart_cycles += 1
    result.recovered_replicas = testbed.object_server.recovered_replicas
    result.reverified_replicas = testbed.object_server.reverified_replicas
    if testbed.naming_store is not None:
        result.naming_records_recovered = testbed.naming_store.recovered_records
    if testbed.location_store is not None:
        result.location_addresses_recovered = testbed.location_store.recovered_addresses

    attempted, ok, intact = _verify_serving(testbed, contents, "sporty.cs.vu.nl")
    result.accesses_after_restart = attempted
    result.accesses_ok = ok
    result.content_intact = intact

    # The write path must also have survived: publish one more document
    # through the recovered services and fetch it back.
    extra_name = f"vu.nl/recovery-{seed}-post"
    extra = {extra_name: {"fresh.html": b"<html>published after restart</html>"}}
    _populate(testbed, extra)
    _, extra_ok, extra_intact = _verify_serving(testbed, extra, "canardo.inria.fr")
    result.post_restart_publish_ok = extra_ok == 1 and extra_intact
    testbed.close_stores()
    return result


# ----------------------------------------------------------------------
# Scenario 2: revocation resume
# ----------------------------------------------------------------------


class _DeadRpc:
    """An RPC client that refuses everything: 'before any network'."""

    def call(self, target, method, **kwargs):
        raise TransportError("network not up yet")


def _run_revocation_resume(quick: bool, seed: int, data_dir: str) -> RevocationResume:
    result = RevocationResume()
    cursor_dir = os.path.join(data_dir, "client-cursor")

    contents = _documents(True, seed + 1000)  # two docs: one doomed, one clean
    names = list(contents)
    testbed = Testbed(data_dir=data_dir, storage_sync=False)
    _populate(testbed, contents)
    doomed = next(
        p for p in testbed._published.values() if p.name == names[0]
    )
    clean = next(p for p in testbed._published.values() if p.name == names[1])

    stack = testbed.client_stack(
        "sporty.cs.vu.nl",
        revocation_max_staleness=MAX_STALENESS,
        revocation_cursor_dir=cursor_dir,
    )
    # Warm: sync the cursor, then the compromise lands on the feed.
    assert stack.proxy.handle(doomed.url("index.html")).ok
    statement = RevocationStatement.revoke_key(
        doomed.owner.keys,
        doomed.owner.oid,
        serial=1,
        issued_at=testbed.clock.now(),
        reason="bench: key compromise",
    )
    testbed.object_server.revocation_feed.publish(statement)
    testbed.clock.advance(stack.revocation.poll_interval + 1.0)
    rejected_live = stack.proxy.handle(doomed.url("index.html"))
    assert not rejected_live.ok  # contained pre-crash; the cursor holds it
    result.feed_head_before = testbed.object_server.revocation_feed.head
    stack.revocation.store.close()

    # Kill/restart world and client together.
    testbed = _restart(testbed, data_dir)
    result.feed_head_after = testbed.object_server.revocation_feed.head
    result.feed_statements_recovered = testbed.object_server.revocation_feed.recovered
    stack = testbed.client_stack(
        "sporty.cs.vu.nl",
        revocation_max_staleness=MAX_STALENESS,
        revocation_cursor_dir=cursor_dir,
    )
    checker = stack.revocation
    result.cursor_statements_recovered = checker.stats.statements_recovered
    result.staleness_reset = checker.staleness is None

    # The zero fail-open window: the revoked OID is condemned straight
    # from the recovered cursor, before the checker has reached any feed
    # — enforced by handing it an RPC client that cannot reach one.
    live_rpc, checker.rpc = checker.rpc, _DeadRpc()
    try:
        response = stack.proxy.handle(doomed.url("index.html"))
        result.revoked_rejected_from_disk = (
            not response.ok and response.status == 403
        )
        result.rejection_error = response.security_failure or ""
        result.refreshes_at_rejection = checker.stats.refreshes
    finally:
        checker.rpc = live_rpc

    # Vouching still needs freshness: the first clean access syncs
    # against the recovered feed and must succeed with no regression.
    response = stack.proxy.handle(clean.url("index.html"))
    result.clean_access_ok_after_sync = bool(response.ok)
    result.head_after_sync = checker.head

    # And a feed that *did* lose its log is refused by the consumer.
    result.regression_detected = _probe_regression(testbed)
    testbed.close_stores()
    return result


def _probe_regression(testbed: Testbed) -> bool:
    """A consumer synced past head N, pointed at a feed restarted empty,
    must raise FeedRegressionError rather than accept the sync."""

    class _Shim:
        def __init__(self):
            self.feed = RevocationFeed()

        def call(self, target, method, **kwargs):
            return self.feed.fetch(since=int(kwargs.get("since", 0)))

    shim = _Shim()
    keys = _keys()
    from repro.globedoc.oid import ObjectId

    oid = ObjectId.from_public_key(keys.public)
    shim.feed.publish(
        RevocationStatement.revoke_key(
            keys, oid, serial=1, issued_at=testbed.clock.now(), reason="probe"
        )
    )
    checker = RevocationChecker(
        shim, feed_target=None, clock=testbed.clock, max_staleness=MAX_STALENESS
    )
    checker.refresh()
    shim.feed = RevocationFeed()  # the feed lost its log
    try:
        checker.refresh()
    except FeedRegressionError:
        return checker.stats.head_regressions == 1
    return False


# ----------------------------------------------------------------------
# Scenario 3: torn tail
# ----------------------------------------------------------------------


def _run_torn_tail(quick: bool, seed: int, data_dir: str) -> TornTail:
    contents = _documents(quick, seed + 2000)
    testbed = Testbed(data_dir=data_dir, storage_sync=False)
    _populate(testbed, contents)

    def tear() -> None:
        # The crash mid-append: half a frame lands after the valid log.
        wal_path = os.path.join(data_dir, "objectserver", "server", "wal.log")
        with open(wal_path, "ab") as fh:
            fh.write(FRAME_HEADER.pack(4096, 0xDEADBEEF) + b"\x17" * 100)

    testbed = _restart(testbed, data_dir, damage=tear)
    result = TornTail(
        torn_bytes_dropped=testbed.object_server.state_store.store.wal.torn_bytes_dropped,
        recovered_replicas=testbed.object_server.recovered_replicas,
        expected_replicas=len(contents),
    )
    attempted, ok, _ = _verify_serving(testbed, contents, "ensamble02.cornell.edu")
    result.accesses_after_restart = attempted
    result.accesses_ok = ok
    testbed.close_stores()
    return result


# ----------------------------------------------------------------------
# Scenario 4: tamper fail-closed
# ----------------------------------------------------------------------


def deface_wal(wal_path: str, target) -> int:
    """CRC-valid rewrite of stored content — the attack checksums cannot
    see. ``target(record)`` picks the part of each journal record to
    deface (``None`` leaves the record alone); every non-empty
    ``content`` bytes value under it is overwritten and the log written
    back through the WAL itself, so its framing is perfectly healthy.
    Returns how many values were defaced."""
    defaced = 0

    def deface(obj) -> None:
        nonlocal defaced
        if isinstance(obj, dict):
            for key, value in obj.items():
                if key == "content" and isinstance(value, (bytes, bytearray)) and value:
                    obj[key] = b"\x00defaced\x00" + bytes(value)[10:]
                    defaced += 1
                else:
                    deface(value)
        elif isinstance(obj, list):
            for value in obj:
                deface(value)

    with WriteAheadLog(wal_path, sync=False) as wal:
        records = wal.take_records()
        for record in records:
            deface(target(record))
        wal.rewrite(records)
    return defaced


def _run_tamper(seed: int, data_dir: str) -> TamperFailClosed:
    contents = _documents(True, seed + 3000)
    testbed = Testbed(data_dir=data_dir, storage_sync=False)
    _populate(testbed, contents)
    testbed.compact_stores()  # the tamper lands inside a rewritten log

    def deface() -> None:
        # Rewrite every stored element's bytes.
        deface_wal(
            os.path.join(data_dir, "objectserver", "server", "wal.log"),
            lambda record: record.get("document"),
        )

    result = TamperFailClosed()
    try:
        # Reaching close_stores means recovery was (wrongly) accepted.
        _restart(testbed, data_dir, damage=deface).close_stores()
    except RecoveryIntegrityError as exc:
        result.failed_closed = True
        result.error_type = type(exc).__name__
        result.error_excerpt = str(exc)[:160]
    return result


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def run_recovery(quick: bool = False, seed: int = 0) -> RecoveryReport:
    """All four scenarios, each in its own scratch directory."""
    report = RecoveryReport()
    scratch = tempfile.mkdtemp(prefix="repro-recovery-")
    try:
        report.replica = _run_replica_recovery(
            quick, seed, os.path.join(scratch, "replica")
        )
        report.revocation = _run_revocation_resume(
            quick, seed, os.path.join(scratch, "revocation")
        )
        report.torn = _run_torn_tail(quick, seed, os.path.join(scratch, "torn"))
        report.tamper = _run_tamper(seed, os.path.join(scratch, "tamper"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return report


def criteria(report: RecoveryReport) -> List[Criterion]:
    """The CI gates, scenario by scenario."""
    replica = report.replica
    revocation = report.revocation
    torn = report.torn
    return [
        gate(
            "replica.recovered", replica.recovered_replicas, "==", replica.documents,
            f"recovered {replica.recovered_replicas} of {replica.documents} replicas",
        ),
        gate(
            "replica.reverified",
            replica.reverified_replicas, "==", replica.recovered_replicas,
            f"only {replica.reverified_replicas} of {replica.recovered_replicas} "
            "recovered replicas were re-verified",
        ),
        gate(
            "replica.naming_records",
            replica.naming_records_recovered, ">=", replica.documents,
            f"naming recovered {replica.naming_records_recovered} records "
            f"for {replica.documents} documents",
        ),
        gate(
            "replica.location_addresses",
            replica.location_addresses_recovered, ">=", replica.documents,
            f"location recovered {replica.location_addresses_recovered} addresses "
            f"for {replica.documents} documents",
        ),
        gate(
            "replica.accesses_ok",
            replica.accesses_ok, "==", replica.accesses_after_restart,
            f"{replica.accesses_after_restart - replica.accesses_ok} accesses "
            "failed after restart",
        ),
        gate(
            "replica.content_intact", replica.content_intact, "==", True,
            "recovered content did not byte-compare equal",
        ),
        gate(
            "replica.post_restart_publish", replica.post_restart_publish_ok, "==", True,
            "write path broken after restart (new publish failed)",
        ),
        gate(
            "revocation.feed_head",
            revocation.feed_head_after, "==", revocation.feed_head_before,
            f"feed head changed across restart: {revocation.feed_head_before} "
            f"-> {revocation.feed_head_after}",
        ),
        gate(
            "revocation.cursor_statements",
            revocation.cursor_statements_recovered, ">=", 1,
            "checker cursor recovered no statements",
        ),
        gate(
            "revocation.rejected_from_disk",
            revocation.revoked_rejected_from_disk, "==", True,
            "restarted client served (or mis-failed) a revoked OID before syncing",
        ),
        gate(
            "revocation.refreshes_at_rejection",
            revocation.refreshes_at_rejection, "==", 0,
            f"rejection needed {revocation.refreshes_at_rejection} feed RPCs; "
            "the fail-open window is supposed to be zero",
        ),
        gate(
            "revocation.rejection_error",
            revocation.rejection_error, "==", "RevokedKeyError",
            f"post-restart rejection attributed to {revocation.rejection_error!r}, "
            "not RevokedKeyError",
        ),
        gate(
            "revocation.staleness_reset", revocation.staleness_reset, "==", True,
            "recovered cursor claims freshness — it must not vouch without a sync",
        ),
        gate(
            "revocation.clean_access_after_sync",
            revocation.clean_access_ok_after_sync, "==", True,
            "clean OID inaccessible after restart + sync",
        ),
        gate(
            "revocation.head_after_sync",
            revocation.head_after_sync, ">=", revocation.feed_head_after,
            f"checker resumed at head {revocation.head_after_sync}, behind the "
            f"feed's {revocation.feed_head_after}",
        ),
        gate(
            "revocation.regression_detected",
            revocation.regression_detected, "==", True,
            "feed head regression was not detected by the consumer",
        ),
        gate(
            "torn.bytes_dropped", torn.torn_bytes_dropped, ">", 0,
            "torn-tail scenario dropped no bytes (scenario broken)",
        ),
        gate(
            "torn.recovered", torn.recovered_replicas, "==", torn.expected_replicas,
            f"torn tail cost {torn.expected_replicas - torn.recovered_replicas} "
            "valid replicas (must cost only the torn suffix)",
        ),
        gate(
            "torn.accesses_ok", torn.accesses_ok, "==", torn.accesses_after_restart,
            "accesses failed after torn-tail recovery",
        ),
        gate(
            "tamper.failed_closed", report.tamper.failed_closed, "==", True,
            "tampered (CRC-valid) store was accepted — recovery served unproven "
            "bytes",
        ),
    ]


TARGET = BenchTarget("recovery", "BENCH_recovery.json", run_recovery, criteria)
