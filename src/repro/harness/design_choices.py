"""The paper's design-choice comparisons DESIGN.md calls out: certificate
schemes, location lookup, certificate caching, replication strategies,
freshness granularity, crypto-operation costs.

Each function isolates one design decision and returns a small result
record; the corresponding ``benchmarks/bench_ablation_*.py`` runs it
under pytest-benchmark and prints the comparison.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto.hashes import SHA1
from repro.crypto.keys import KeyPair, rsa_encrypt
from repro.crypto.merkle import MerkleTree
from repro.crypto.signing import sign_payload, verify_payload
from repro.errors import ReproError
from repro.globedoc.integrity import IntegrityCertificate
from repro.harness.experiment import Testbed
from repro.harness.fig4 import CLIENT_HOSTS
from repro.location.tree import DomainTree
from repro.net.address import ContactAddress, Endpoint
from repro.workloads.generator import make_document_owner, make_element
from repro.workloads.sizes import fig567_objects

__all__ = [
    "CryptoOpCosts",
    "measure_crypto_ops",
    "CertSchemeCosts",
    "compare_cert_schemes",
    "LocationCosts",
    "compare_location_lookup",
    "CertCacheCosts",
    "compare_cert_caching",
    "StrategyCosts",
    "compare_replication_strategies",
    "FreshnessCosts",
    "compare_freshness_granularity",
]


# ----------------------------------------------------------------------
# Ablation: signature verify vs RSA decrypt (GlobeDoc vs SSL, §4)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CryptoOpCosts:
    """Mean seconds per operation, measured on real crypto."""

    sign: float
    verify: float
    rsa_encrypt: float
    rsa_decrypt: float
    iterations: int

    @property
    def decrypt_over_verify(self) -> float:
        """The paper's claim: this ratio is large (verify is much cheaper)."""
        return self.rsa_decrypt / self.verify if self.verify > 0 else float("inf")


def measure_crypto_ops(iterations: int = 50, key_bits: int = 2048) -> CryptoOpCosts:
    """Time the four RSA operations underpinning the GlobeDoc-vs-SSL
    cost argument, on real keys."""
    if iterations < 1:
        raise ReproError("iterations must be positive")
    keys = KeyPair.generate(key_bits)
    payload = {"msg": "x" * 256}
    signature = sign_payload(keys, payload)
    premaster = b"\x01" * 48
    ciphertext = rsa_encrypt(keys.public, premaster)

    def timed(fn) -> float:
        start = time.perf_counter()
        for _ in range(iterations):
            fn()
        return (time.perf_counter() - start) / iterations

    return CryptoOpCosts(
        sign=timed(lambda: sign_payload(keys, payload)),
        verify=timed(lambda: verify_payload(keys.public, signature, payload)),
        rsa_encrypt=timed(lambda: rsa_encrypt(keys.public, premaster)),
        rsa_decrypt=timed(lambda: keys.decrypt(ciphertext)),
        iterations=iterations,
    )


# ----------------------------------------------------------------------
# Ablation: flat integrity certificate vs r-OSFS Merkle tree
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CertSchemeCosts:
    """Owner/update/verify/freshness costs of the two schemes."""

    element_count: int
    globedoc_sign_seconds: float
    globedoc_update_one_seconds: float
    globedoc_cert_bytes: int
    merkle_build_sign_seconds: float
    merkle_update_one_seconds: float
    merkle_proof_bytes: int
    globedoc_per_element_freshness: bool = True
    merkle_per_element_freshness: bool = False


def compare_cert_schemes(
    element_count: int = 64, element_size: int = 4096, repeats: int = 3
) -> CertSchemeCosts:
    """Cost comparison between the GlobeDoc integrity certificate and an
    r-OSFS-style signed Merkle root, over the same elements."""
    keys = KeyPair.generate()
    elements = [
        make_element(f"e{i:03d}.bin", element_size) for i in range(element_count)
    ]
    oid_hex = "ab" * 20

    def timed(fn) -> float:
        start = time.perf_counter()
        for _ in range(repeats):
            fn()
        return (time.perf_counter() - start) / repeats

    # GlobeDoc: hash all elements + sign one certificate.
    def sign_globedoc():
        return IntegrityCertificate.for_elements(
            keys, oid_hex, elements, expires_at=1e12
        )

    cert = sign_globedoc()

    # GlobeDoc update of one element: rehash one + re-sign the table.
    def update_globedoc():
        changed = elements[0].with_content(b"new")
        entries = dict(cert.entries)
        from repro.globedoc.integrity import ElementEntry

        entries[changed.name] = ElementEntry(
            name=changed.name,
            content_hash=changed.content_hash(SHA1),
            expires_at=1e12,
        )
        return IntegrityCertificate.build(
            keys, oid_hex, list(entries.values()), version=2
        )

    # Merkle: hash all leaves, build tree, sign root.
    leaves = [e.content for e in elements]

    def build_merkle():
        tree = MerkleTree(leaves)
        sign_payload(keys, {"root": tree.root})
        return tree

    tree = build_merkle()

    # Merkle update of one element: full rebuild + re-sign root.
    def update_merkle():
        new_leaves = [b"new"] + leaves[1:]
        new_tree = MerkleTree(new_leaves)
        sign_payload(keys, {"root": new_tree.root})

    return CertSchemeCosts(
        element_count=element_count,
        globedoc_sign_seconds=timed(sign_globedoc),
        globedoc_update_one_seconds=timed(update_globedoc),
        globedoc_cert_bytes=cert.wire_size,
        merkle_build_sign_seconds=timed(build_merkle),
        merkle_update_one_seconds=timed(update_merkle),
        merkle_proof_bytes=tree.proof(0).wire_size,
    )


# ----------------------------------------------------------------------
# Ablation: expanding-ring location lookup vs flat directory
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LocationCosts:
    """Search cost (nodes visited) under local vs remote replicas."""

    sites: int
    replicas: int
    ring_local_visits: float
    ring_remote_visits: float
    flat_visits: float
    tree_records: int
    flat_records: int


def compare_location_lookup(
    fanout: int = 4, depth: int = 3, replicas: int = 8
) -> LocationCosts:
    """Expanding-ring search in a domain tree vs a flat directory scan.

    Builds a ``fanout**depth``-site tree, registers *replicas* replicas
    of one object, and measures nodes visited when the querying site is
    (a) one of the replica sites — the common CDN case the design
    optimises — and (b) far from every replica.
    """
    tree = DomainTree()
    site_paths = []

    def build(path: str, level: int) -> None:
        if level == depth:
            site_paths.append(path)
            tree.add_site(path)
            return
        for i in range(fanout):
            build(f"{path}/d{level}{i}", level + 1)

    build("root", 0)

    address = ContactAddress(
        endpoint=Endpoint(host="h", service="objectserver"), replica_id="r"
    )
    oid_hex = "cd" * 20
    replica_sites = site_paths[:: max(1, len(site_paths) // replicas)][:replicas]
    for site in replica_sites:
        tree.insert(oid_hex, site, address)

    _, local_visits = tree.lookup(oid_hex, replica_sites[0])
    # A site maximally far from the replicas:
    far_site = site_paths[-1] if site_paths[-1] not in replica_sites else site_paths[-2]
    _, remote_visits = tree.lookup(oid_hex, far_site)

    # Flat directory: one central table; every lookup scans it (cost
    # modelled as one visit per registered object entry — here, the
    # replica list length — plus the single directory hop).
    flat_visits = 1 + len(replica_sites)

    return LocationCosts(
        sites=len(site_paths),
        replicas=len(replica_sites),
        ring_local_visits=float(local_visits),
        ring_remote_visits=float(remote_visits),
        flat_visits=float(flat_visits),
        tree_records=tree.total_records(),
        flat_records=len(replica_sites),
    )


# ----------------------------------------------------------------------
# Ablation: integrity-certificate caching in the proxy
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CertCacheCosts:
    """Whole-object retrieval time with and without binding cache."""

    client: str
    object_label: str
    cached_seconds: float
    uncached_seconds: float

    @property
    def speedup(self) -> float:
        return self.uncached_seconds / self.cached_seconds if self.cached_seconds else 0.0


def compare_cert_caching(
    client_label: str = "Paris", object_index: int = 0, repeats: int = 3
) -> CertCacheCosts:
    """Measure the ~2 KB key+certificate exchange amortisation: fetch an
    11-element object with the secure binding cached vs re-established
    per element (Fig. 4's "initial security exchange" cost)."""
    host = CLIENT_HOSTS[client_label]
    testbed = Testbed()
    spec = fig567_objects()[object_index]
    owner = make_document_owner(spec, clock=testbed.clock)
    published = testbed.publish(owner)

    def retrieve(cache_binding: bool) -> float:
        stack = testbed.client_stack(host)
        proxy = stack.fresh_proxy(cache_binding=cache_binding)
        start = testbed.clock.now()
        for element_name in spec.element_names:
            response = proxy.handle(published.url(element_name))
            if not response.ok:
                raise ReproError(f"ablation retrieval failed: {response.status}")
        return testbed.clock.now() - start

    cached = sum(retrieve(True) for _ in range(repeats)) / repeats
    uncached = sum(retrieve(False) for _ in range(repeats)) / repeats
    return CertCacheCosts(
        client=client_label,
        object_label=spec.label,
        cached_seconds=cached,
        uncached_seconds=uncached,
    )


# ----------------------------------------------------------------------
# Ablation: per-document replication strategy vs one-size-fits-all
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StrategyCosts:
    """Outcome of replaying one request trace under one strategy."""

    strategy: str
    mean_latency: float
    total_latency: float
    replica_seconds: float
    placements: int


def _replay_strategy(trace, strategy_factory, home_site, site_latency, local_latency):
    """Replay *trace* against a strategy, charging WAN latency for
    requests served from the home site and *local_latency* for requests
    at sites holding a replica."""
    from repro.replication.policy import RequestObservation

    policy = strategy_factory()
    current = [home_site]
    replica_since: Dict[str, float] = {}
    total_latency = 0.0
    replica_seconds = 0.0
    placements = 0
    for event in trace:
        obs = RequestObservation(site=event.site, time=event.time)
        if event.site in current:
            total_latency += local_latency
        else:
            total_latency += site_latency.get(event.site, 0.05)
        for action in policy.on_request(obs, current):
            if action.kind.value == "create" and action.site not in current:
                current.append(action.site)
                replica_since[action.site] = event.time
                placements += 1
            elif action.kind.value == "destroy" and action.site in current[1:]:
                current.remove(action.site)
                replica_seconds += event.time - replica_since.pop(action.site, event.time)
    if trace:
        end = trace[-1].time
        for site, since in replica_since.items():
            replica_seconds += end - since
    return total_latency, replica_seconds, placements


def compare_replication_strategies(
    trace=None,
    home_site: str = "root/europe/vu",
    site_latency=None,
    local_latency: float = 0.005,
    seed: int = 0,
):
    """Replay one trace under every catalogue strategy (ref [13]'s
    per-document-beats-global claim). Returns a list of
    :class:`StrategyCosts`, one per strategy, plus the per-document best
    pick appended as ``"per-document"`` (oracle choice)."""
    from repro.replication.strategies import (
        HotspotReplication,
        NoReplication,
        StaticReplication,
    )
    from repro.workloads.trace import TraceConfig, generate_trace, inject_flash_crowd

    if site_latency is None:
        site_latency = {
            "root/europe/vu": 0.002,
            "root/europe/inria": 0.022,
            "root/us/cornell": 0.092,
        }
    if trace is None:
        config = TraceConfig(
            documents=("vu.nl/viral",),
            sites=tuple(site_latency),
            duration=600.0,
            rate=2.0,
            seed=seed,
        )
        trace = inject_flash_crowd(
            generate_trace(config),
            document="vu.nl/viral",
            site="root/us/cornell",
            start=200.0,
            duration=120.0,
            rate=20.0,
            seed=seed + 1,
        )

    factories = {
        "no-replication": NoReplication,
        "static-everywhere": lambda: StaticReplication(sites=list(site_latency)),
        "hotspot": lambda: HotspotReplication(
            create_rate=1.0, destroy_rate=0.05, window=30.0
        ),
    }
    results = []
    for name, factory in factories.items():
        total, replica_seconds, placements = _replay_strategy(
            trace, factory, home_site, site_latency, local_latency
        )
        results.append(
            StrategyCosts(
                strategy=name,
                mean_latency=total / len(trace) if trace else 0.0,
                total_latency=total,
                replica_seconds=replica_seconds,
                placements=placements,
            )
        )
    return results


# ----------------------------------------------------------------------
# Ablation: per-element freshness vs one global interval (vs r-OSFS, §5)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FreshnessCosts:
    """Freshness-maintenance workload under mixed element volatilities.

    A document has one *hot* element (meaningful validity =
    ``hot_interval``) and many *cold* ones (meaningful validity =
    ``cold_validity``). GlobeDoc's per-element expiration lets each
    element carry its own interval; r-OSFS has exactly one interval for
    the whole store, which must shrink to the hot element's — forcing
    clients to re-validate *everything* at the hot rate.
    """

    elements: int
    horizon: float
    #: how often a client must re-validate a cached COLD element
    globedoc_cold_revalidations: int
    rosfs_cold_revalidations: int
    #: owner signings over the horizon (same for both — one hot element)
    owner_signs: int
    #: client-side re-validation traffic over the horizon (bytes)
    globedoc_refresh_bytes: int
    rosfs_refresh_bytes: int

    @property
    def revalidation_ratio(self) -> float:
        """How many times more often r-OSFS clients must re-validate
        cold content (the paper's per-element-freshness advantage)."""
        return self.rosfs_cold_revalidations / max(1, self.globedoc_cold_revalidations)


def compare_freshness_granularity(
    elements: int = 20,
    hot_interval: float = 60.0,
    cold_validity: float = 3600.0,
    horizon: float = 3600.0,
) -> FreshnessCosts:
    """Quantify §5's claim that per-element expiration beats r-OSFS's
    single per-store interval when element volatilities differ.

    Model: a client keeps all elements cached and re-validates whenever
    an element's proof of freshness lapses. GlobeDoc: the cold elements'
    certificate rows last ``cold_validity``; only the hot element needs
    the short interval. r-OSFS: the single store interval must equal
    ``hot_interval`` (else the hot element could be replayed stale), so
    every cached element goes stale at the hot rate.
    """
    if hot_interval <= 0 or cold_validity < hot_interval:
        raise ReproError("need 0 < hot_interval <= cold_validity")
    hot_updates = int(horizon / hot_interval)
    cold_count = elements - 1

    cert_bytes = 120 * elements + 400  # entry rows + signature envelope
    root_bytes = 20 + 400
    proof_bytes = 21 * max(1, (max(2, elements) - 1).bit_length()) + 8

    globedoc_cold_revalidations = int(horizon / cold_validity)
    rosfs_cold_revalidations = hot_updates

    # GlobeDoc client: refetch the certificate when the hot element
    # needs re-validation (it carries all rows), but cold elements stay
    # provably fresh between cold_validity marks — no extra traffic.
    globedoc_refresh = hot_updates * cert_bytes
    # r-OSFS client: every interval the signed root changes; refetch the
    # root plus a fresh proof per cached element.
    rosfs_refresh = hot_updates * (root_bytes + proof_bytes * elements)

    return FreshnessCosts(
        elements=elements,
        horizon=horizon,
        globedoc_cold_revalidations=globedoc_cold_revalidations,
        rosfs_cold_revalidations=rosfs_cold_revalidations,
        owner_signs=hot_updates,
        globedoc_refresh_bytes=globedoc_refresh,
        rosfs_refresh_bytes=rosfs_refresh,
    )
