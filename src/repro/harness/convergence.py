"""Convergence bench: N partitioned writers, one byte-identical document.

The multi-writer gate for CI (``python -m repro.harness convergence
[--quick]``), in two scenarios:

* **Partitioned convergence** — N granted writers update the same
  object against two object servers that cannot see each other; after
  the partition heals (one anti-entropy round), both servers and an
  independent verified reader must hold *byte-identical* merged
  documents, proven by comparing state digests.
* **Crash recovery** — an object server killed mid-stream recovers its
  delta DAG from the durable journal with every signature re-verified;
  a CRC-valid rewrite of a stored delta aborts recovery with
  :class:`~repro.errors.RecoveryIntegrityError` (fail closed).

The multi-writer tamper matrix (``VERSIONING_SCENARIOS``) is decided by
tier-1, ``tests/attacks/test_versioning_attacks.py``; what a merge
costs in wall-clock time is ``perf/``'s ``versioning.merge_us_per_delta``.

Writes ``BENCH_convergence.json``; :func:`criteria` declares the gates.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from dataclasses import asdict, dataclass, field
from typing import Dict, List

from repro.crypto.keys import KeyPair
from repro.errors import RecoveryIntegrityError
from repro.globedoc.oid import ObjectId
from repro.harness.kernel import BenchTarget, Criterion, gate
from repro.harness.recovery import deface_wal
from repro.net.rpc import RpcClient
from repro.net.transport import LoopbackTransport
from repro.proxy.checks import SecurityChecker
from repro.server.objectserver import ObjectServer
from repro.sim.clock import SimClock
from repro.versioning import (
    DeltaDag,
    DocumentWriter,
    SignedDelta,
    WriterGrant,
    merge_deltas,
)
from repro.versioning.client import VersionedReader

__all__ = [
    "PartitionedConvergence",
    "RecoveryGate",
    "ConvergenceReport",
    "run_convergence",
    "criteria",
    "TARGET",
]

SERVER_HOSTS = ("ginger.cs.vu.nl", "canardo.inria.fr")


@dataclass
class PartitionedConvergence:
    """Partition, write, heal, compare digests everywhere."""

    writers: int = 0
    rounds: int = 0
    deltas: int = 0
    gossip_pulled: int = 0
    gossip_pushed: int = 0
    server_digests: Dict[str, str] = field(default_factory=dict)
    reader_digests: Dict[str, str] = field(default_factory=dict)
    byte_identical: bool = False
    elements: int = 0


@dataclass
class RecoveryGate:
    """Durable delta DAG across a crash; tampered bytes never serve."""

    deltas_published: int = 0
    recovered_deltas: int = 0
    reverified_deltas: int = 0
    recovered_grants: int = 0
    digest_intact: bool = False
    frontier_cert_recovered: bool = False
    tamper_failed_closed: bool = False
    tamper_error: str = ""


@dataclass
class ConvergenceReport:
    """Everything the CI gate and the bench-report digest consume."""

    partitioned: PartitionedConvergence = field(
        default_factory=PartitionedConvergence
    )
    recovery: RecoveryGate = field(default_factory=RecoveryGate)

    def to_dict(self) -> dict:
        return asdict(self)


# ----------------------------------------------------------------------
# World construction
# ----------------------------------------------------------------------


def _keys() -> KeyPair:
    # RSA-1024 keeps the bench fast; the gates exercise logic, not RSA.
    return KeyPair.generate(1024)


class _Universe:
    """Two object servers on one loopback wire, plus the owner."""

    def __init__(self, data_dirs=(None, None), clock=None):
        self.clock = clock if clock is not None else SimClock()
        if self.clock.now() == 0.0:
            self.clock.advance(100.0)
        self.transport = LoopbackTransport()
        self.rpc = RpcClient(self.transport)
        self.servers = []
        for host, data_dir in zip(SERVER_HOSTS, data_dirs):
            server = ObjectServer(
                host=host,
                site="root/site/" + host.split(".")[0],
                clock=self.clock,
                data_dir=data_dir,
                storage_sync=False,
            )
            self.transport.register(server.endpoint, server.rpc_server().handle_frame)
            self.servers.append(server)
        self.owner_keys = _keys()
        self.oid = ObjectId.from_public_key(self.owner_keys.public)

    def grant_writers(self, count: int):
        """Register the object and grant *count* writers on every server."""
        writers = {}
        for index in range(count):
            writer_id = f"writer{index:02d}"
            keys = _keys()
            grant = WriterGrant.issue(
                self.owner_keys, self.oid, writer_id, keys.public,
                granted_at=self.clock.now(),
            )
            for server in self.servers:
                server.versioning.register_object(self.owner_keys.public)
                server.versioning.put_grant(self.oid.hex, grant)
            writers[writer_id] = DocumentWriter(keys, writer_id, self.oid, self.clock)
        return writers

    def reader(self) -> VersionedReader:
        checker = SecurityChecker(self.clock)
        return VersionedReader(self.rpc, checker)

    def close(self) -> None:
        for server in self.servers:
            server.close()


# ----------------------------------------------------------------------
# Scenario 1: partitioned convergence
# ----------------------------------------------------------------------


def _run_partitioned(quick: bool, seed: int) -> PartitionedConvergence:
    writer_count = 3 if quick else 5
    rounds = 2 if quick else 4
    rng = random.Random(seed)
    universe = _Universe()
    writers = universe.grant_writers(writer_count)

    # Partition: each writer publishes only to its home server and sees
    # only that server's branch; the two halves diverge causally.
    views = {}
    homes = {}
    for index, (writer_id, writer) in enumerate(sorted(writers.items())):
        homes[writer_id] = universe.servers[index % len(universe.servers)]
        views[writer_id] = DeltaDag()
    deltas = 0
    for round_index in range(rounds):
        for writer_id, writer in sorted(writers.items()):
            home = homes[writer_id]
            # Sync the writer's view with its home server's branch.
            bundle = home.versioning.fetch(
                universe.oid.hex, have_ids=views[writer_id].delta_ids
            )
            views[writer_id].add_all(
                SignedDelta.from_dict(d) for d in bundle["deltas"]
            )
            content = bytes(
                f"round {round_index} by {writer_id}: {rng.random():.12f}",
                "ascii",
            )
            delta = writer.put(
                views[writer_id], f"element-{rng.randrange(writer_count)}", content
            )
            home.versioning.put_delta(universe.oid.hex, delta)
            deltas += 1
            universe.clock.advance(0.25)

    # Heal: one pull+push anti-entropy round equalises the two DAGs.
    gossip = universe.servers[0].gossip_versioned(
        universe.rpc, universe.servers[1].endpoint, universe.oid.hex
    )

    result = PartitionedConvergence(
        writers=writer_count, rounds=rounds, deltas=deltas,
        gossip_pulled=gossip["pulled"], gossip_pushed=gossip["pushed"],
    )
    for server in universe.servers:
        served = [
            SignedDelta.from_dict(d)
            for d in server.versioning.fetch(universe.oid.hex)["deltas"]
        ]
        merged = merge_deltas(served, oid_hex=universe.oid.hex)
        result.server_digests[server.host] = merged.digest_hex
        result.elements = len(merged.elements)
    for server in universe.servers:
        # Independent verified readers, one per replica: the digest each
        # one *proves* must match, not just the servers' own claims.
        access = universe.reader().read(server.endpoint, universe.oid)
        result.reader_digests[server.host] = access.merged.digest_hex
    digests = set(result.server_digests.values()) | set(result.reader_digests.values())
    result.byte_identical = len(digests) == 1
    universe.close()
    return result


# ----------------------------------------------------------------------
# Scenario 2: crash recovery + tamper fail-closed
# ----------------------------------------------------------------------


def _run_recovery_gate(quick: bool, seed: int, scratch: str) -> RecoveryGate:
    result = RecoveryGate()
    data_dir = os.path.join(scratch, "primary")
    clock = SimClock()
    clock.advance(100.0)
    universe = _Universe(data_dirs=(data_dir, None), clock=clock)
    writers = universe.grant_writers(3 if quick else 5)
    view = DeltaDag()
    durable = universe.servers[0]
    for index, (writer_id, writer) in enumerate(sorted(writers.items())):
        delta = writer.put(view, "body", bytes(f"write {index}", "ascii"))
        durable.versioning.put_delta(universe.oid.hex, delta)
        result.deltas_published += 1
    merged = merge_deltas(view.deltas, oid_hex=universe.oid.hex)
    first_writer = writers[sorted(writers)[0]]
    durable.versioning.put_frontier_cert(
        universe.oid.hex, first_writer.certify_frontier(merged)
    )
    expected_digest = merged.digest_hex
    durable.compact()  # recovery and the tamper below judge a rewritten log
    universe.close()

    # Crash/restart over the same directory: the DAG must come back with
    # every delta signature re-verified, and merge to the same bytes.
    revived = ObjectServer(
        host=SERVER_HOSTS[0], site="root/site/ginger", clock=clock,
        data_dir=data_dir, storage_sync=False,
    )
    result.recovered_deltas = revived.versioning.recovered_deltas
    result.reverified_deltas = revived.versioning.reverified_deltas
    result.recovered_grants = revived.versioning.recovered_grants
    bundle = revived.versioning.fetch(universe.oid.hex)
    recovered_merge = merge_deltas(
        [SignedDelta.from_dict(d) for d in bundle["deltas"]],
        oid_hex=universe.oid.hex,
    )
    result.digest_intact = recovered_merge.digest_hex == expected_digest
    result.frontier_cert_recovered = bundle["frontier_cert"] is not None
    revived.close()

    # Tamper at rest (CRC recomputed, so checksums cannot see it): the
    # next recovery must abort, never serve.
    defaced = deface_wal(
        os.path.join(data_dir, "versioning", "wal.log"),
        lambda record: record if record.get("op") == "delta" else None,
    )
    if defaced:
        try:
            tampered = ObjectServer(
                host=SERVER_HOSTS[0], site="root/site/ginger", clock=clock,
                data_dir=data_dir, storage_sync=False,
            )
            tampered.close()  # recovery was (wrongly) accepted
        except RecoveryIntegrityError as exc:
            result.tamper_failed_closed = True
            result.tamper_error = type(exc).__name__
    return result


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def run_convergence(quick: bool = False, seed: int = 0) -> ConvergenceReport:
    report = ConvergenceReport()
    scratch = tempfile.mkdtemp(prefix="repro-convergence-")
    try:
        report.partitioned = _run_partitioned(quick, seed)
        report.recovery = _run_recovery_gate(quick, seed, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return report


def criteria(report: ConvergenceReport) -> List[Criterion]:
    """The CI gates, scenario by scenario."""
    part = report.partitioned
    recovery = report.recovery
    return [
        gate(
            "partitioned.byte_identical", part.byte_identical, "==", True,
            "replicas/readers diverged after healing: "
            f"servers {part.server_digests}, readers {part.reader_digests}",
        ),
        gate(
            "partitioned.deltas", part.deltas, ">=", part.writers,
            "fewer deltas published than writers — bench under-ran",
        ),
        gate(
            "partitioned.gossip_exchanged",
            part.gossip_pulled + part.gossip_pushed, ">", 0,
            "partition never exchanged deltas — gossip did not run",
        ),
        gate(
            "recovery.recovered_deltas",
            recovery.recovered_deltas, "==", recovery.deltas_published,
            f"recovery lost deltas: {recovery.recovered_deltas}/"
            f"{recovery.deltas_published}",
        ),
        gate(
            "recovery.reverified_deltas",
            recovery.reverified_deltas, "==", recovery.recovered_deltas,
            "recovered deltas were not all re-verified",
        ),
        gate(
            "recovery.digest_intact", recovery.digest_intact, "==", True,
            "recovered DAG merges to different bytes than before crash",
        ),
        gate(
            "recovery.frontier_cert", recovery.frontier_cert_recovered, "==", True,
            "frontier certificate did not survive the restart",
        ),
        gate(
            "recovery.tamper_failed_closed", recovery.tamper_failed_closed, "==", True,
            "tampered (CRC-valid) delta store was accepted — recovery served "
            "unproven bytes",
        ),
    ]


TARGET = BenchTarget("convergence", "BENCH_convergence.json", run_convergence, criteria)
