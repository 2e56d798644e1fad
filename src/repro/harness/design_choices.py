"""The paper's design-choice comparisons DESIGN.md calls out: crypto
operation costs, certificate schemes, freshness granularity, location
lookup, certificate caching, replication strategies, server-side
signing, verified-content caching, SSL connection reuse.

Each ``compare_*``/``measure_*`` function isolates one design decision
and returns a small result record; the replication-strategy comparison
is :func:`repro.harness.loadsim.run_crowd_study`, the full-stack flash
crowd. ``python -m repro.harness design-choices`` runs all nine and
prints the claim/measured table (:func:`run_design_choices`,
:func:`render_design_choices`). Nothing here reads a timer: the two cost
comparisons (verify vs decrypt, certificate vs Merkle build) run the
real operations and price what they counted at DESIGN §2's table, so
the table is the same on every run and EXPERIMENTS.md § Ablations
commits it. What the operations cost this process is ``perf/``'s job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, TypeVar

from repro.baselines.gemini import GeminiCache, GeminiClient
from repro.crypto.keys import KeyPair, rsa_encrypt
from repro.crypto.merkle import MerkleTree
from repro.crypto.signing import sign_payload, verify_payload
from repro.errors import ReproError
from repro.globedoc.element import PageElement
from repro.globedoc.integrity import IntegrityCertificate
from repro.globedoc.owner import DocumentOwner
from repro.harness.experiment import Testbed
from repro.harness.fig4 import CLIENT_HOSTS
from repro.harness.loadsim import CROWD_SITE, run_crowd_study
from repro.harness.report import render_table
from repro.location.tree import DomainTree
from repro.net.address import ContactAddress, Endpoint
from repro.net.rpc import RpcClient
from repro.net.simnet import HostProfile, SimNetwork
from repro.net.transport import LoopbackTransport
from repro.proxy.contentcache import ContentCache
from repro.server.localrep import ReplicaLR
from repro.util.tally import TALLY
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
    "FreshnessCosts",
    "compare_freshness_granularity",
    "ServerSigningCounts",
    "compare_server_signing",
    "ContentCacheCosts",
    "compare_content_cache",
    "SslReuseCosts",
    "compare_ssl_reuse",
    "run_design_choices",
    "render_design_choices",
]

T = TypeVar("T")


def _priced(work: Callable[[], T]) -> Tuple[T, float]:
    """Run *work* once in a compute region of a modern host (factor 1):
    its result, and the seconds the cost table (DESIGN §2) charges for
    what it counted. A fresh network's clock starts at zero."""
    network = SimNetwork()
    host = network.add_host(HostProfile(name="modern", site="root/modern"))
    with host.compute():
        result = work()
    return result, network.clock.now()


# ----------------------------------------------------------------------
# Ablation: signature verify vs RSA decrypt (GlobeDoc vs SSL, §4)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CryptoOpCosts:
    """Modern seconds per RSA-2048 operation, priced by the cost table."""

    sign: float
    verify: float
    rsa_decrypt: float

    @property
    def decrypt_over_verify(self) -> float:
        """The paper's claim: this ratio is large (verify is much cheaper)."""
        return self.rsa_decrypt / self.verify


def measure_crypto_ops() -> CryptoOpCosts:
    """Price the RSA operations underpinning the GlobeDoc-vs-SSL cost
    argument — the owner's sign, a client's verify, an SSL server's
    decrypt of the premaster — each run once on a real RSA-2048 key."""
    keys = KeyPair.generate(2048)
    payload = {"msg": "x" * 256}
    ciphertext = rsa_encrypt(keys.public, b"\x01" * 48)
    signature, sign = _priced(lambda: sign_payload(keys, payload))
    _, verify = _priced(lambda: verify_payload(keys.public, signature, payload))
    _, decrypt = _priced(lambda: keys.decrypt(ciphertext))
    return CryptoOpCosts(sign, verify, decrypt)


# ----------------------------------------------------------------------
# Ablation: flat integrity certificate vs r-OSFS Merkle tree
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CertSchemeCosts:
    """Owner signing cost and per-fetch metadata of the two schemes."""

    element_count: int
    globedoc_sign_seconds: float
    globedoc_cert_bytes: int
    merkle_build_sign_seconds: float
    merkle_proof_bytes: int


def compare_cert_schemes(
    element_count: int = 64, element_size: int = 4096
) -> CertSchemeCosts:
    """Cost comparison between the GlobeDoc integrity certificate and an
    r-OSFS-style signed Merkle root, over the same elements. Each region
    prices the first build: a second certificate would find every
    element's content hash memoized and skip the hashing."""
    keys = KeyPair.generate()
    elements = [
        make_element(f"e{i:03d}.bin", element_size) for i in range(element_count)
    ]

    def build_merkle() -> MerkleTree:
        tree = MerkleTree([e.content for e in elements])
        sign_payload(keys, {"root": tree.root})
        return tree

    cert, cert_seconds = _priced(
        lambda: IntegrityCertificate.for_elements(keys, "ab" * 20, elements, expires_at=1e12)
    )
    tree, tree_seconds = _priced(build_merkle)
    return CertSchemeCosts(
        element_count=element_count,
        globedoc_sign_seconds=cert_seconds,
        globedoc_cert_bytes=cert.wire_size,
        merkle_build_sign_seconds=tree_seconds,
        merkle_proof_bytes=tree.proof(0).wire_size,
    )


# ----------------------------------------------------------------------
# Ablation: expanding-ring location lookup vs flat directory
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LocationCosts:
    """Search cost (nodes visited) at a replica site, and records kept."""

    replicas: int
    ring_local_visits: float
    flat_visits: float
    tree_records: int
    flat_records: int


def compare_location_lookup(
    fanout: int = 4, depth: int = 3, replicas: int = 8
) -> LocationCosts:
    """Expanding-ring search in a domain tree vs a flat directory scan.

    Builds a ``fanout**depth``-site tree, registers *replicas* replicas
    of one object, and measures nodes visited when the querying site is
    one of the replica sites — the common CDN case the design optimises.
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

    # Flat directory: one central table; every lookup scans it (cost
    # modelled as one visit per registered object entry — here, the
    # replica list length — plus the single directory hop).
    flat_visits = 1 + len(replica_sites)

    return LocationCosts(
        replicas=len(replica_sites),
        ring_local_visits=float(local_visits),
        flat_visits=float(flat_visits),
        tree_records=tree.total_records(),
        flat_records=len(replica_sites),
    )


# ----------------------------------------------------------------------
# Ablation: integrity-certificate caching in the proxy
# ----------------------------------------------------------------------


def _retrieve(testbed: Testbed, proxy, published, spec) -> float:
    """Simulated seconds to fetch every element of *spec* through *proxy*."""
    start = testbed.clock.now()
    for element_name in spec.element_names:
        response = proxy.handle(published.url(element_name))
        if not response.ok:
            raise ReproError(f"design-choice retrieval failed: {response.status}")
    return testbed.clock.now() - start


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
        proxy = testbed.client_stack(host).fresh_proxy(cache_binding=cache_binding)
        return _retrieve(testbed, proxy, published, spec)

    cached = sum(retrieve(True) for _ in range(repeats)) / repeats
    uncached = sum(retrieve(False) for _ in range(repeats)) / repeats
    return CertCacheCosts(
        client=client_label,
        object_label=spec.label,
        cached_seconds=cached,
        uncached_seconds=uncached,
    )


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

    #: how often a client must re-validate a cached COLD element
    globedoc_cold_revalidations: int
    rosfs_cold_revalidations: int

    @property
    def revalidation_ratio(self) -> float:
        """How many times more often r-OSFS clients must re-validate
        cold content (the paper's per-element-freshness advantage)."""
        return self.rosfs_cold_revalidations / max(1, self.globedoc_cold_revalidations)


def compare_freshness_granularity(
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
    return FreshnessCosts(
        globedoc_cold_revalidations=int(horizon / cold_validity),
        rosfs_cold_revalidations=int(horizon / hot_interval),
    )


# ----------------------------------------------------------------------
# Ablation: Gemini cache-signing vs GlobeDoc owner-signing (§5)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ServerSigningCounts:
    """RSA signatures made by each design to serve *responses* responses."""

    responses: int
    gemini_signs: int
    globedoc_serving_signs: int
    globedoc_publish_signs: int


def compare_server_signing(files: int = 8) -> ServerSigningCounts:
    """Gemini's untrusted caches sign every response they serve; a
    GlobeDoc replica holds no private key — the owner signs once,
    offline, and serving is pure data movement. Counts the RSA
    signatures of each phase off the work tally: the only private key
    of each deployment is the only key signing in it."""
    contents = {f"page{i}.html": b"x" * 4096 for i in range(files)}

    def signed() -> int:
        return TALLY["rsa.sign", 1024]

    cache = GeminiCache(host="squid", keys=KeyPair.generate(1024))
    cache.fill(contents)
    transport = LoopbackTransport()
    transport.register(cache.endpoint, cache.rpc_server().handle_frame)
    client = GeminiClient(RpcClient(transport), cache.endpoint, cache.public_key)
    start = signed()
    for name in contents:
        client.get(name)
    gemini_signs = signed() - start

    owner = DocumentOwner("vu.nl/served", keys=KeyPair.generate(1024))
    owner.put_elements(PageElement(name, data) for name, data in contents.items())
    start = signed()
    replica = ReplicaLR(owner.publish(validity=3600.0).state())
    publish_signs = signed() - start
    for name in contents:
        replica.get_element(name)
    return ServerSigningCounts(
        responses=replica.serve_count,
        gemini_signs=gemini_signs,
        globedoc_serving_signs=signed() - start - publish_signs,
        globedoc_publish_signs=publish_signs,
    )


# ----------------------------------------------------------------------
# Ablation: verified-content caching at the proxy
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ContentCacheCosts:
    """Simulated seconds per repeat access, without and with the cache."""

    client: str
    without_seconds: float
    with_cache_seconds: float
    hit_rate: float


def compare_content_cache(
    client_label: str = "Ithaca", repeats: int = 10
) -> ContentCacheCosts:
    """The integrity certificate makes client caching safe: a verified
    element is servable with no network traffic until its owner-signed
    expiry. Measures a WAN client's repeat accesses (after one cold
    access) with and without a :class:`ContentCache`."""
    testbed = Testbed()
    owner = testbed.document_owner(
        "vu.nl/cached", {"page.html": b"<html>popular</html>" * 100}
    )
    url = testbed.publish(owner, validity=3600.0).url("page.html")
    host = CLIENT_HOSTS[client_label]

    def repeat_cost(cache: Optional[ContentCache]) -> float:
        proxy = testbed.client_stack(host, content_cache=cache).proxy
        proxy.handle(url)  # cold access
        start = testbed.clock.now()
        for _ in range(repeats):
            if not proxy.handle(url).ok:
                raise ReproError("content-cache comparison: access failed")
        return (testbed.clock.now() - start) / repeats

    cache = ContentCache(clock=testbed.clock, ttl=600.0)
    return ContentCacheCosts(
        client_label, repeat_cost(None), repeat_cost(cache), cache.hit_rate
    )


# ----------------------------------------------------------------------
# Ablation: SSL connection reuse vs per-request handshakes
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SslReuseCosts:
    """Whole-object retrieval time (simulated seconds) per scheme."""

    client: str
    object_label: str
    per_request_seconds: float
    persistent_seconds: float
    globedoc_seconds: float


def compare_ssl_reuse(
    client_label: str = "Paris", object_index: int = 1
) -> SslReuseCosts:
    """Figures 5–7 model wget-over-HTTPS as one TLS handshake per
    element (HTTP/1.0-era behaviour); this also fetches the object over
    one persistent connection, to show how much of the SSL series is
    handshake cost, next to GlobeDoc's one-verify binding."""
    host = CLIENT_HOSTS[client_label]
    testbed = Testbed()
    spec = fig567_objects()[object_index]
    published = testbed.publish(make_document_owner(spec, clock=testbed.clock))
    paths = [f"{published.name}/{name}" for name in spec.element_names]

    def ssl(per_request_handshake: bool) -> float:
        client = testbed.ssl_client(host)
        start = testbed.clock.now()
        client.get_many(paths, per_request_handshake=per_request_handshake)
        return testbed.clock.now() - start

    globedoc = _retrieve(testbed, testbed.client_stack(host).proxy, published, spec)
    return SslReuseCosts(client_label, spec.label, ssl(True), ssl(False), globedoc)


# ----------------------------------------------------------------------
# All nine, as the claim/measured table of EXPERIMENTS.md
# ----------------------------------------------------------------------


def run_design_choices() -> List[List[str]]:
    """Run every comparison; one ``[comparison, claim, measured]`` row each."""
    ops = measure_crypto_ops()
    scheme = compare_cert_schemes()
    fresh = compare_freshness_granularity()
    ring = compare_location_lookup()
    binding = compare_cert_caching()
    (single, _), (hotspot, placements) = run_crowd_study()
    signing = compare_server_signing()
    cached = compare_content_cache()
    ssl = compare_ssl_reuse()

    def ms(seconds: float) -> str:
        return f"{seconds * 1e3:.1f} ms"

    def peak(report) -> str:
        return ms(report.latency_summary(site=CROWD_SITE, start=45.0, end=60.0).mean)

    return [
        ["crypto ops", "signature verify ≪ RSA decrypt (§4)",
         f"verify {ops.verify * 1e6:.0f} us vs decrypt {ops.rsa_decrypt * 1e6:.0f} us"
         f" on RSA-2048 ({ops.decrypt_over_verify:.1f}x)"],
        ["certificate scheme", "GlobeDoc vs r-OSFS trade (§5)",
         f"{scheme.element_count} elements: full sign {ms(scheme.globedoc_sign_seconds)}"
         f" vs {ms(scheme.merkle_build_sign_seconds)}; {scheme.globedoc_cert_bytes} B"
         f" cert per binding vs {scheme.merkle_proof_bytes} B proof per element"],
        ["freshness granularity", "per-element expiry impossible in r-OSFS (§5)",
         f"cold content re-validated {fresh.globedoc_cold_revalidations}x/h vs"
         f" {fresh.rosfs_cold_revalidations}x/h ({fresh.revalidation_ratio:.0f}x)"],
        ["location lookup", "expanding ring scales under replication (§2.1.2)",
         f"{ring.replicas} replicas: {ring.ring_local_visits:.0f} visit at a replica"
         f" site vs {ring.flat_visits:.0f} flat; records {ring.tree_records} vs"
         f" {ring.flat_records}"],
        ["certificate caching", "key+cert prefetch dominates small objects (§4)",
         f"{binding.object_label}, {binding.client}: binding cached"
         f" {ms(binding.cached_seconds)} vs per element {ms(binding.uncached_seconds)}"
         f" ({binding.speedup:.1f}x)"],
        ["replication strategies", "per-document beats one-size-fits-all (§2, [13])",
         f"flash crowd, peak 45-60 s: {peak(single)} single server vs"
         f" {peak(hotspot)} hotspot ({placements} placements)"],
        ["server signing", "prevention vs eventual detection (§5)",
         f"{signing.responses} responses: Gemini cache {signing.gemini_signs} RSA signs,"
         f" GlobeDoc replica {signing.globedoc_serving_signs} (owner signed"
         f" {signing.globedoc_publish_signs}x at publish)"],
        ["verified-content cache", "certificate expiry bounds staleness",
         f"repeat access, {cached.client}: {ms(cached.without_seconds)} vs"
         f" {ms(cached.with_cache_seconds)} cached (hit rate {cached.hit_rate:.2f})"],
        ["SSL connection reuse", "how much of the SSL series is handshake cost",
         f"{ssl.object_label}, {ssl.client}: handshake per element"
         f" {ms(ssl.per_request_seconds)}, persistent {ms(ssl.persistent_seconds)},"
         f" GlobeDoc {ms(ssl.globedoc_seconds)}"],
    ]


def render_design_choices(rows: List[List[str]]) -> str:
    """The nine comparisons as one claim/measured table."""
    title = "Design choices — the paper's claim vs this reproduction"
    return title + "\n" + render_table(["Comparison", "Claim", "Measured"], rows)
