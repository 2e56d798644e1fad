"""The reachability census: every function of ``src/repro`` is entered by a
runner, or is named in :data:`EXCEPTIONS` with the reason it stays.

A runner is what the project runs that is not a test: the harness targets
(``all``, ``design-choices``, ``loadtest``, ``benches``, ``bench-report``),
every ``examples/*.py`` and the five ``perf/`` workloads in ``--quick``
mode with ``--trace 0`` and ``--trace 1``. The census runs them all in this
process under ``sys.setprofile`` and ``threading.setprofile`` and records
each code object entered. A ``def`` of ``src/repro`` (nested ones
included) that none of them enters fails the census, unless it is

- a ``@property`` or a dunder of fewer than 3 lines (one blanket rule), or
- named in :data:`EXCEPTIONS`, by ``module:qualname`` or, for a whole
  module, by ``module``.

Run it (about 27 s on a 2-vCPU container; every runner writes only to a
temporary directory)::

    PYTHONPATH=src python -m tests.reach_census

It prints each unentered function and exits 1 when there is any, then the
counts and the exceptions by reason. CI runs it in its censuses step,
before the suite; the tier-1 suite does not run the runners, and
``tests/test_reach_census.py`` holds every exception to an existing
function and a non-empty reason.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import pathlib
import runpy
import sys
import tempfile
import threading

import repro

SRC = pathlib.Path(repro.__file__).parent.parent
REPO = SRC.parent

RECOVERY = (
    "fail-closed recovery and compaction: a restart replays and re-verifies "
    "the journal, a compaction rewrites it; pinned by the tier-1 "
    "crash-recovery and persistence tests"
)
OWNER_UPDATES = (
    "owner updates and replica teardown: ROADMAP item 23 gives the update "
    "path a runner"
)
FRONTIER = "frontier certificates: ROADMAP items 3(b) and 16 decide them"
VERSIONED_READS = (
    "versioned reads have no access path yet: ROADMAP item 16 decides "
    "versioning, and these accessors with it"
)
SCENARIOS = (
    "the reference suite the conformance tests compare the attack matrix "
    "against: ROADMAP item 12"
)
ORACLE = (
    "a round-trip oracle: the inverse of a product encoder, which tests "
    "hold the encoder to"
)
DECLARATION = (
    "a Protocol or abstract method's declaration: what runs is an "
    "implementation"
)
ADVERSARY = (
    "an adversary's answer to a request the proxy never makes of it, "
    "having refused an earlier answer (or the honest control behaviour)"
)
FAILURE_PATH = (
    "fail-closed handling of a peer that misbehaves or fails: no honest "
    "run takes it; the tier-1 fault and fuzz tests do"
)
CONTAINMENT = (
    "revocation containment: what a revoked key tears down on a server or "
    "purges from a client's caches; pinned by the tier-1 revocation tests"
)
UNBUILT = (
    "a path of a stack no runner builds (handle_many over a content cache, "
    "call_many over a transport without request_many, the plain-HTTP "
    "client's batch): the tier-1 differentials hold it to the built one"
)
QUERY = (
    "a read-only query tests observe a run through; it changes no state "
    "and nothing in a run needs to ask it"
)
RESET = "a reset tests run between phases of one scenario; it only empties state"
REPR = "the text a failing assertion or a debugger shows for the object"

#: Functions (``module:qualname``) and whole modules (``module``) no runner
#: enters, each with the reason it stays.
EXCEPTIONS: dict[str, str] = {
    "repro.attacks.scenarios": SCENARIOS,
    **dict.fromkeys(
        (
            "repro.crypto.keys:KeyPair.to_pem",
            "repro.globedoc.oid:ObjectId.from_hex",
        ),
        ORACLE,
    ),
    **dict.fromkeys(
        (
            "repro.deployment:Deployment.compact_stores",
            "repro.location.persistence:DurableLocationStore._live_records",
            "repro.location.persistence:DurableLocationStore.compact",
            "repro.naming.persistence:DurableNamingStore._live_records",
            "repro.naming.persistence:DurableNamingStore.compact",
            "repro.revocation.checker:RevocationChecker._live_records",
            "repro.revocation.checker:RevocationChecker._recover",
            "repro.revocation.checker:RevocationChecker._recover.admit",
            "repro.revocation.feed:RevocationFeed._live_records",
            "repro.revocation.feed:RevocationFeed._recover.admit",
            "repro.revocation.feed:RevocationFeed.compact",
            "repro.server.objectserver:ObjectServer._durable_records",
            "repro.server.objectserver:ObjectServer.compact",
            "repro.server.persistence:ServerStateStore._apply",
            "repro.server.persistence:ServerStateStore._reverify",
            "repro.storage.store:DurableStore.compact",
            "repro.storage.wal:WriteAheadLog._try_frame",
            "repro.storage.wal:WriteAheadLog.rewrite",
            "repro.versioning.store:VersionedObjectStore._live_records",
            "repro.versioning.store:VersionedObjectStore._recover.admit",
            "repro.versioning.store:VersionedObjectStore.compact",
        ),
        RECOVERY,
    ),
    **dict.fromkeys(
        (
            "repro.replication.coordinator:ReplicationCoordinator.publish_update",
            "repro.server.objectserver:ObjectServer.update_replica",
            "repro.server.localrep:ReplicaLR.update_state",
            "repro.server.admin:AdminClient.update_replica",
            "repro.server.admin:AdminClient.list_replicas",
            "repro.server.persistence:update_record",
            "repro.server.persistence:destroy_record",
            "repro.globedoc.owner:DocumentOwner.remove_element",
            "repro.globedoc.owner:SignedDocument.from_state",
            "repro.globedoc.document:DocumentState.add_element",
            "repro.globedoc.document:DocumentState.remove_element",
            "repro.globedoc.document:DocumentState.copy",
        ),
        OWNER_UPDATES,
    ),
    **dict.fromkeys(
        (
            "repro.versioning.frontier:FrontierCertificate.build",
            "repro.versioning.frontier:FrontierCertificate.from_dict",
            "repro.versioning.frontier:FrontierCertificate.to_dict",
            "repro.versioning.frontier:FrontierCertificate.verify",
            "repro.versioning.frontier:FrontierCertificate.__repr__",
            "repro.versioning.store:VersionedObjectStore.put_frontier_cert",
            "repro.versioning.store:VersionedObjectStore._cert_supersedes",
            "repro.versioning.writer:DocumentWriter.certify_frontier",
            "repro.versioning.dag:DeltaDag.ancestors",
            "repro.versioning.dag:DeltaDag.dominates",
            "repro.versioning.dag:Frontier.from_list",
        ),
        FRONTIER,
    ),
    **dict.fromkeys(
        (
            "repro.versioning.client:VersionedReader.cached_element",
            "repro.versioning.client:VersionedReader.known_dag",
            "repro.versioning.client:VersionedReader.known_frontier",
            "repro.versioning.dag:DeltaDag.delta_ids",
            "repro.versioning.dag:DeltaDag.frontier",
            "repro.versioning.dag:DeltaDag.get",
            "repro.versioning.dag:Frontier.empty",
            "repro.versioning.merge:MergedDocument.element",
        ),
        VERSIONED_READS,
    ),
    **dict.fromkeys(
        (
            "repro.attacks.malicious_server:ReplicaBehavior.public_key",
            "repro.attacks.malicious_server:ReplicaBehavior.integrity",
            "repro.attacks.malicious_server:ReplicaBehavior.element",
            "repro.globedoc.document:GlobeDocInterface.get_public_key",
            "repro.globedoc.document:GlobeDocInterface.get_identity_certificates",
            "repro.globedoc.document:GlobeDocInterface.get_integrity_certificate",
            "repro.globedoc.document:GlobeDocInterface.get_element",
            "repro.net.transport:Transport.request",
            "repro.obs.sinks:SpanSink.on_span",
            "repro.replication.policy:ReplicationPolicy.on_request",
            "repro.sim.clock:Clock.now",
            "repro.sim.clock:Clock.compute",
        ),
        DECLARATION,
    ),
    **dict.fromkeys(
        (
            "repro.attacks.malicious_server:HonestBehavior.element",
            "repro.attacks.malicious_server:ImpostorBehavior.element",
            "repro.attacks.malicious_server:ImpostorBehavior.integrity",
            "repro.attacks.malicious_server:MaliciousReplica.rpc_get_identity_certificates",
        ),
        ADVERSARY,
    ),
    **dict.fromkeys(
        (
            "repro.net.message:Response.failure",
            "repro.net.rpc:_remote_error",
            "repro.server.localrep:_malformed",
            "repro.util.encoding:_refuse_constant",
            "repro.location.service:LookupResult.closest",
            "repro.obs.span:NoopSpan.mark_error",
            "repro.obs.span:NoopTracer.add_sink",
        ),
        FAILURE_PATH,
    ),
    **dict.fromkeys(
        (
            "repro.server.objectserver:ObjectServer._on_entity_revoked",
            "repro.server.persistence:revoke_record",
            "repro.server.keystore:Keystore.unsubscribe",
            "repro.crypto.verifycache:VerificationCache.invalidate_key",
            "repro.proxy.contentcache:ContentCache.invalidate_element",
            "repro.proxy.contentcache:ContentCache.invalidate_object",
        ),
        CONTAINMENT,
    ),
    **dict.fromkeys(
        (
            "repro.proxy.contentcache:ContentCache.contains",
            "repro.net.rpc:RpcClient._call_outcome",
            "repro.baselines.plainhttp:PlainHttpClient.get_many",
        ),
        UNBUILT,
    ),
    **dict.fromkeys(
        (
            "repro.crypto.identity:TrustStore.names",
            "repro.crypto.identity:TrustStore.trusted_key",
            "repro.crypto.identity:TrustStore.trusts",
            "repro.crypto.signing:SignedEnvelope.wire_size",
            "repro.crypto.verifycache:VerificationCache.__len__",
            "repro.crypto.verifycache:VerificationCache.bytes_used",
            "repro.deployment:Deployment.zone_keys",
            "repro.globedoc.document:DocumentState.total_size",
            "repro.globedoc.integrity:IntegrityCertificate.issued_at",
            "repro.globedoc.links:Link.as_hybrid",
            "repro.globedoc.links:intra_object_links",
            "repro.globedoc.owner:DocumentOwner.version",
            "repro.globedoc.urls:HybridUrl.for_oid",
            "repro.harness.loadsim:LoadedRequest.wait",
            "repro.location.tree:DomainTree.addresses_at",
            "repro.location.tree:DomainTree.depth_of",
            "repro.naming.records:parent_zone",
            "repro.naming.zone:Zone.lookup",
            "repro.net.tcpnet:TcpTransport.pooled_connections",
            "repro.net.topology:WanTopology.clients",
            "repro.obs.profile:CriticalPathProfiler.add_all",
            "repro.obs.sinks:RingBufferSink.__len__",
            "repro.obs.sinks:RingBufferSink.errors",
            "repro.obs.sinks:RingBufferSink.named",
            "repro.obs.sinks:RingBufferSink.slowest",
            "repro.obs.trace:AssembledTrace.duration",
            "repro.obs.trace:AssembledTrace.is_reachable",
            "repro.obs.trace:AssembledTrace.named",
            "repro.obs.trace:AssembledTrace.stitch_rate",
            "repro.obs.trace:AssembledTrace.unreachable",
            "repro.proxy.contentcache:ContentCache.bytes_used",
            "repro.proxy.metrics:AccessMetrics.by_phase",
            "repro.proxy.pipeline:PrefetchingRpcClient.__len__",
            "repro.revocation.checker:RevocationChecker.head",
            "repro.revocation.checker:RevocationChecker.known_statements",
            "repro.revocation.feed:RevocationFeed.max_serial",
            "repro.revocation.feed:RevocationFeed.statements",
            "repro.revocation.feed:RevocationFeed.statements_for",
            "repro.server.keystore:Keystore.entries",
            "repro.server.keystore:Keystore.is_authorized",
            "repro.server.keystore:Keystore.require",
            "repro.server.objectserver:ObjectServer.hosts_oid",
            "repro.sim.clock:ParallelRegion.elapsed",
            "repro.storage.wal:WriteAheadLog.__len__",
            "repro.util.sizes:parse_size",
            "repro.util.stats:geometric_mean",
        ),
        QUERY,
    ),
    **dict.fromkeys(
        (
            "repro.crypto.identity:TrustStore.remove",
            "repro.crypto.verifycache:VerificationCache.clear",
            "repro.location.cache:AddressCache.clear",
            "repro.location.service:LocationService.add_site",
            "repro.naming.zone:Zone.remove_record",
            "repro.net.health:ReplicaHealthTracker.reset",
            "repro.net.simnet:SimHost.advance",
            "repro.net.simnet:SimNetwork.set_default_link",
            "repro.net.tcpnet:TcpTransport.add_host",
            "repro.net.transport:LoopbackTransport.unregister",
            "repro.obs.sinks:SpanStats.clear",
            "repro.obs.trace:TraceAssembler.clear",
            "repro.proxy.contentcache:ContentCache.clear",
            "repro.proxy.session:SecureSession.invalidate",
        ),
        RESET,
    ),
    **dict.fromkeys(
        (
            "repro.crypto.verifycache:VerificationCache.__repr__",
            "repro.naming.zone:Zone.__repr__",
            "repro.obs.span:Span.__repr__",
            "repro.revocation.statement:RevocationStatement.__repr__",
            "repro.storage.store:DurableStore.__repr__",
            "repro.util.stats:Summary.__str__",
            "repro.versioning.delta:SignedDelta.__repr__",
        ),
        REPR,
    ),
}


# -- what the source defines ------------------------------------------------


def module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _is_blanket(node: ast.FunctionDef) -> bool:
    """A ``@property`` or a dunder of fewer than 3 lines."""
    short = node.end_lineno - node.lineno + 1 < 3
    dunder = node.name.startswith("__") and node.name.endswith("__")
    prop = any(
        (isinstance(d, ast.Name) and d.id == "property")
        or (isinstance(d, ast.Attribute) and d.attr in ("setter", "deleter"))
        for d in node.decorator_list
    )
    return short and (dunder or prop)


def definitions() -> dict:
    """``(file, first line) → (module:qualname, blanket)`` for every ``def``
    of ``src/repro``. The first line is the first decorator's, as in the
    code object's ``co_firstlineno``."""
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = module_name(path)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        todo = [(tree, "")]
        while todo:
            node, prefix = todo.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    found[(str(path), first)] = (f"{module}:{qualname}", _is_blanket(child))
                    todo.append((child, qualname + "."))
                elif isinstance(child, ast.ClassDef):
                    todo.append((child, prefix + child.name + "."))
                else:
                    todo.append((child, prefix))
    return found


def exception_of(name: str):
    """The reason *name* (``module:qualname``) stays, or ``None``."""
    module = name.split(":", 1)[0]
    return EXCEPTIONS.get(name) or EXCEPTIONS.get(module)


# -- what the runners enter -------------------------------------------------


def _run_examples(work: str) -> None:
    for path in sorted((REPO / "examples").glob("*.py")):
        runpy.run_path(str(path), run_name="__main__")


def _run_harness(work: str) -> None:
    from repro.harness.__main__ import main

    for argv in (
        ["all", "--repeats", "1"],
        ["design-choices"],
        ["loadtest"],
        ["benches", "--out", os.path.join(work, "bench-out")],
        ["bench-report"],
    ):
        if main(argv) != 0:
            raise RuntimeError(f"python -m repro.harness {' '.join(argv)} failed")


def _run_perf(work: str) -> None:
    sys.path.insert(0, str(REPO))
    try:
        from perf import run, runner

        runner.WORK_ROOT = os.path.join(work, "perf")
        for trace in ("0", "1"):
            if run.main(["--quick", "--trace", trace]) != 0:
                raise RuntimeError(f"perf/run.py --quick --trace {trace} failed")
    finally:
        sys.path.remove(str(REPO))


RUNNERS = (_run_harness, _run_examples, _run_perf)


def entered() -> set:
    """``(file, first line)`` of every code object of ``src/repro`` that a
    runner enters, on any thread of this process."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    with tempfile.TemporaryDirectory(prefix="reach-census-") as work:
        with contextlib.redirect_stdout(io.StringIO()):
            threading.setprofile(profile)
            sys.setprofile(profile)
            try:
                for run in RUNNERS:
                    run(work)
            finally:
                sys.setprofile(None)
                threading.setprofile(None)
    root = str(SRC / "repro")
    return {(c.co_filename, c.co_firstlineno) for c in seen if c.co_filename.startswith(root)}


def census() -> dict:
    """Every def of ``src/repro`` sorted into ``entered``, ``blanket``,
    ``excepted`` and ``missing`` (the census's failures), each a sorted
    list of ``module:qualname``."""
    reached = entered()
    verdicts = {"entered": [], "blanket": [], "excepted": [], "missing": []}
    for key, (name, blanket) in definitions().items():
        if key in reached:
            verdict = "entered"
        elif blanket:
            verdict = "blanket"
        else:
            verdict = "excepted" if exception_of(name) is not None else "missing"
        verdicts[verdict].append(name)
    return {verdict: sorted(names) for verdict, names in verdicts.items()}


def main() -> int:
    verdicts = census()
    for name in verdicts["missing"]:
        print(f"never entered by a runner: {name}")
    total = sum(len(names) for names in verdicts.values())
    print(
        f"{total} functions: {len(verdicts['entered'])} entered, "
        f"{total - len(verdicts['entered'])} never entered "
        f"({len(verdicts['blanket'])} by the blanket rule, "
        f"{len(verdicts['excepted'])} excepted, {len(verdicts['missing'])} missing)"
    )
    by_reason = {}
    for name in verdicts["excepted"]:
        reason = exception_of(name)
        by_reason[reason] = by_reason.get(reason, 0) + 1
    for reason, count in sorted(by_reason.items(), key=lambda item: -item[1]):
        print(f"  {count:4d} excepted: {reason}")
    return 1 if verdicts["missing"] else 0


if __name__ == "__main__":
    sys.exit(main())
