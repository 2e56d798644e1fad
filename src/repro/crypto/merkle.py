"""Merkle hash trees.

This is the r-OSFS design (§5, ref [6]): hash every
leaf, combine pairwise up to a root, sign only the root. A client can
verify any single leaf with an O(log n) *proof* instead of a per-leaf
signature — but freshness can only be asserted for the whole tree at
once, which is exactly the limitation the GlobeDoc integrity certificate
removes (per-element validity intervals). The ``design-choices``
certificate-scheme row (``compare_cert_schemes``) quantifies this trade.

Interior nodes are domain-separated from leaves (0x00/0x01 prefixes) so
a leaf value can never be replayed as an interior node (second-preimage
defence).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.crypto import hashes
from repro.errors import CryptoError

__all__ = ["MerkleTree", "MerkleProof"]

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"


@dataclass(frozen=True)
class MerkleProof:
    """Authentication path for one leaf: (sibling_hash, sibling_is_left)."""

    leaf_index: int
    leaf_count: int
    path: Tuple[Tuple[bytes, bool], ...]

    @property
    def length(self) -> int:
        return len(self.path)

    @property
    def wire_size(self) -> int:
        """Bytes needed to ship this proof (hashes + direction bits)."""
        return sum(len(h) + 1 for h, _ in self.path) + 8


class MerkleTree:
    """A Merkle tree over a sequence of byte-string leaves.

    The tree is built eagerly and is immutable; rebuilding after an
    update is O(n), which is the r-OSFS update-cost story the ablation
    measures against GlobeDoc's O(1)-per-element certificate row update.
    """

    def __init__(self, leaves: Sequence[bytes]) -> None:
        if len(leaves) == 0:
            raise CryptoError("Merkle tree requires at least one leaf")
        self._leaf_data = [bytes(leaf) for leaf in leaves]
        # levels[0] = leaf hashes, levels[-1] = [root]
        self._levels: List[List[bytes]] = [
            [self._hash_leaf(leaf) for leaf in self._leaf_data]
        ]
        while len(self._levels[-1]) > 1:
            self._levels.append(self._combine_level(self._levels[-1]))

    def _hash_leaf(self, leaf: bytes) -> bytes:
        return hashes.digest(_LEAF_PREFIX, leaf)

    def _hash_node(self, left: bytes, right: bytes) -> bytes:
        return hashes.digest(_NODE_PREFIX, left, right)

    def _combine_level(self, level: List[bytes]) -> List[bytes]:
        out: List[bytes] = []
        for i in range(0, len(level), 2):
            left = level[i]
            # Odd node promotes by pairing with itself (Bitcoin-style would
            # duplicate; we promote unchanged to avoid the CVE-2012-2459
            # duplication ambiguity).
            if i + 1 < len(level):
                out.append(self._hash_node(left, level[i + 1]))
            else:
                out.append(left)
        return out

    @property
    def leaf_count(self) -> int:
        return len(self._leaf_data)

    @property
    def root(self) -> bytes:
        """The root hash — the only thing the owner signs in r-OSFS."""
        return self._levels[-1][0]

    @property
    def height(self) -> int:
        return len(self._levels) - 1

    def leaf_hash(self, index: int) -> bytes:
        return self._levels[0][index]

    def proof(self, index: int) -> MerkleProof:
        """Authentication path proving leaf *index* is under :attr:`root`."""
        if not 0 <= index < self.leaf_count:
            raise CryptoError(
                f"leaf index {index} out of range [0, {self.leaf_count})"
            )
        path: List[Tuple[bytes, bool]] = []
        pos = index
        for level in self._levels[:-1]:
            sibling = pos ^ 1
            if sibling < len(level):
                path.append((level[sibling], sibling < pos))
            # else: odd node promoted unchanged, no sibling at this level
            pos //= 2
        return MerkleProof(
            leaf_index=index, leaf_count=self.leaf_count, path=tuple(path)
        )

    def verify(self, leaf: bytes, proof: MerkleProof, root: bytes) -> bool:
        """Check that *leaf* authenticates to *root* via *proof*."""
        current = self._hash_leaf(bytes(leaf))
        for sibling, sibling_is_left in proof.path:
            if sibling_is_left:
                current = self._hash_node(sibling, current)
            else:
                current = self._hash_node(current, sibling)
        return current == root

    @classmethod
    def verify_detached(
        cls,
        leaf: bytes,
        proof: MerkleProof,
        root: bytes,
    ) -> bool:
        """Verify without holding the tree (the client-side operation)."""
        current = hashes.digest(_LEAF_PREFIX, bytes(leaf))
        for sibling, sibling_is_left in proof.path:
            if sibling_is_left:
                current = hashes.digest(_NODE_PREFIX, sibling, current)
            else:
                current = hashes.digest(_NODE_PREFIX, current, sibling)
        return current == root
