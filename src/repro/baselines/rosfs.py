"""The read-only Secure File System baseline (ref [6], §5).

r-OSFS protects a whole file system with a single hash tree: leaves are
file blocks, the owner signs only the *root*, and clients verify any
block with an O(log n) Merkle proof. The paper credits the efficiency
but criticises the freshness granularity: "only one global (per-file
system) consistency interval can be supported, instead of allowing
per-file freshness constraints."

This implementation keeps the comparison sharp by reusing the GlobeDoc
substrate: same elements, same transports, same clock. Differences the
ablation bench measures:

* signing cost per update: r-OSFS re-signs one root but must rebuild the
  tree (O(n) hashing); GlobeDoc re-signs the certificate (O(n) hashing
  too, but per-element expiry comes for free);
* per-fetch verification: Merkle proof (log n hashes) vs one table
  lookup — but r-OSFS clients verify the root signature once per
  *freshness interval*, GlobeDoc once per binding;
* freshness: r-OSFS has exactly one interval for everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.crypto.certificates import Certificate
from repro.crypto.hashes import HashSuite, SHA1
from repro.crypto.keys import KeyPair, PublicKey
from repro.crypto.merkle import MerkleProof, MerkleTree
from repro.errors import AuthenticityError, FreshnessError, ReproError
from repro.globedoc.element import PageElement
from repro.net.address import Endpoint
from repro.net.rpc import RpcClient, RpcServer, rpc_method
from repro.sim.clock import Clock

__all__ = ["RosfsStore", "RosfsServer", "RosfsClient"]

ROOT_CERT_TYPE = "rosfs/root"


class RosfsStore:
    """Owner-side store: files, tree, and the signed root.

    ``publish`` rebuilds the tree over the *current* file set and signs
    a fresh root with one global validity interval — the whole-store
    re-sign the paper contrasts with per-element certificates.
    """

    def __init__(self, keys: Optional[KeyPair] = None, suite: HashSuite = SHA1) -> None:
        self.keys = keys if keys is not None else KeyPair.generate()
        self.suite = suite
        self._files: Dict[str, bytes] = {}
        self._order: List[str] = []
        self._tree: Optional[MerkleTree] = None
        self._root_cert: Optional[Certificate] = None
        self.publish_count = 0

    @property
    def public_key(self) -> PublicKey:
        return self.keys.public

    def put_file(self, name: str, content: bytes) -> None:
        if name not in self._files:
            self._order.append(name)
        self._files[name] = bytes(content)
        self._tree = None  # stale until next publish

    @property
    def file_names(self) -> List[str]:
        return list(self._order)

    def publish(self, valid_until: float) -> Certificate:
        """Rebuild the tree and sign its root with one global interval."""
        if not self._files:
            raise ReproError("cannot publish an empty r-OSFS store")
        leaves = [self._files[name] for name in self._order]
        self._tree = MerkleTree(leaves, suite=self.suite)
        self._root_cert = Certificate.issue(
            self.keys,
            ROOT_CERT_TYPE,
            {"root": self._tree.root, "names": list(self._order)},
            not_after=valid_until,
            suite=self.suite,
        )
        self.publish_count += 1
        return self._root_cert

    def proof_for(self, name: str) -> Tuple[bytes, MerkleProof]:
        """(content, proof) for one file; requires a publish first."""
        if self._tree is None or self._root_cert is None:
            raise ReproError("store not published")
        try:
            index = self._order.index(name)
        except ValueError:
            raise ReproError(f"no such file {name!r}") from None
        return self._files[name], self._tree.proof(index)

    @property
    def root_certificate(self) -> Certificate:
        if self._root_cert is None:
            raise ReproError("store not published")
        return self._root_cert


class RosfsServer:
    """Untrusted replica of a published r-OSFS store."""

    def __init__(self, host: str, store: RosfsStore, service: str = "rosfs") -> None:
        self.host = host
        self.service = service
        # The replica holds only public material: files, proofs, root cert.
        self.store = store

    @property
    def endpoint(self) -> Endpoint:
        return Endpoint(host=self.host, service=self.service)

    @rpc_method("rosfs.get_root")
    def rpc_get_root(self) -> dict:
        return self.store.root_certificate.to_dict()

    @rpc_method("rosfs.get_public_key")
    def rpc_get_public_key(self) -> bytes:
        return self.store.public_key.der

    @rpc_method("rosfs.get_file")
    def rpc_get_file(self, name: str) -> dict:
        content, proof = self.store.proof_for(str(name))
        return {
            "name": name,
            "content": content,
            "leaf_index": proof.leaf_index,
            "leaf_count": proof.leaf_count,
            "path": [[h, left] for h, left in proof.path],
        }

    def rpc_server(self) -> RpcServer:
        server = RpcServer(name=f"rosfs@{self.host}")
        server.register_object(self)
        return server


class RosfsClient:
    """Client: verify the root once per interval, then proofs per file."""

    def __init__(
        self,
        rpc: RpcClient,
        server_endpoint: Endpoint,
        owner_key: PublicKey,
        clock: Clock,
        suite: HashSuite = SHA1,
    ) -> None:
        self.rpc = rpc
        self.endpoint = server_endpoint
        self.owner_key = owner_key
        self.clock = clock
        self.suite = suite
        self._root: Optional[bytes] = None
        self._root_expiry: Optional[float] = None
        self.root_fetches = 0

    def _ensure_root(self) -> bytes:
        now = self.clock.now()
        if self._root is not None and self._root_expiry is not None and now <= self._root_expiry:
            return self._root
        raw = self.rpc.call(self.endpoint, "rosfs.get_root")
        cert = Certificate.from_dict(raw)
        with self.clock.compute():
            body = cert.verify(self.owner_key, clock=self.clock, expected_type=ROOT_CERT_TYPE)
        self._root = bytes(body["root"])
        self._root_expiry = cert.not_after
        self.root_fetches += 1
        return self._root

    def get_file(self, name: str) -> bytes:
        """Fetch + verify one file against the signed root.

        Raises :class:`~repro.errors.AuthenticityError` on proof failure
        and :class:`~repro.errors.FreshnessError` if the *whole store's*
        interval has lapsed — there is no per-file freshness here.
        """
        root = self._ensure_root()
        if self._root_expiry is not None and self.clock.now() > self._root_expiry:
            raise FreshnessError("r-OSFS root certificate expired")
        answer = self.rpc.call(self.endpoint, "rosfs.get_file", name=name)
        content = bytes(answer["content"])
        proof = MerkleProof(
            leaf_index=int(answer["leaf_index"]),
            leaf_count=int(answer["leaf_count"]),
            path=tuple((bytes(h), bool(left)) for h, left in answer["path"]),
        )
        with self.clock.compute():
            ok = MerkleTree.verify_detached(content, proof, root, suite=self.suite)
        if not ok:
            raise AuthenticityError(f"Merkle proof for {name!r} failed against signed root")
        return content
