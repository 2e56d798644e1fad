"""Merkle trees: proofs, tamper detection, structural invariants."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import hashes
from repro.crypto.hashes import SHA1, SHA256
from repro.crypto.merkle import MerkleProof, MerkleTree
from repro.errors import CryptoError


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(CryptoError):
            MerkleTree([])

    def test_single_leaf(self):
        tree = MerkleTree([b"only"])
        assert tree.leaf_count == 1
        assert tree.height == 0
        proof = tree.proof(0)
        assert proof.length == 0
        assert tree.verify(b"only", proof, tree.root)

    def test_height_logarithmic(self):
        assert MerkleTree([b"x"] * 8).height == 3
        assert MerkleTree([b"x"] * 9).height == 4

    def test_root_deterministic(self):
        leaves = [b"a", b"b", b"c"]
        assert MerkleTree(leaves).root == MerkleTree(leaves).root

    def test_root_order_sensitive(self):
        assert MerkleTree([b"a", b"b"]).root != MerkleTree([b"b", b"a"]).root

    def test_leaf_change_changes_root(self):
        assert MerkleTree([b"a", b"b"]).root != MerkleTree([b"a", b"c"]).root

    def test_domain_separation(self):
        """A two-leaf tree's root must differ from a single leaf whose
        content is the concatenation of the two leaf hashes (the
        leaf/node prefix defence)."""
        two = MerkleTree([b"a", b"b"])
        concat = two.leaf_hash(0) + two.leaf_hash(1)
        one = MerkleTree([concat])
        assert two.root != one.root


class TestProofs:
    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 7, 8, 9, 16, 33])
    def test_every_leaf_verifies(self, count):
        leaves = [f"leaf-{i}".encode() for i in range(count)]
        tree = MerkleTree(leaves)
        for i, leaf in enumerate(leaves):
            proof = tree.proof(i)
            assert tree.verify(leaf, proof, tree.root), f"leaf {i} of {count}"
            assert MerkleTree.verify_detached(leaf, proof, tree.root)

    def test_wrong_leaf_rejected(self):
        tree = MerkleTree([b"a", b"b", b"c", b"d"])
        proof = tree.proof(1)
        assert not tree.verify(b"tampered", proof, tree.root)

    def test_wrong_index_proof_rejected(self):
        tree = MerkleTree([b"a", b"b", b"c", b"d"])
        assert not tree.verify(b"a", tree.proof(1), tree.root)

    def test_wrong_root_rejected(self):
        tree = MerkleTree([b"a", b"b"])
        other = MerkleTree([b"x", b"y"])
        assert not tree.verify(b"a", tree.proof(0), other.root)

    def test_out_of_range_rejected(self):
        tree = MerkleTree([b"a"])
        with pytest.raises(CryptoError):
            tree.proof(1)
        with pytest.raises(CryptoError):
            tree.proof(-1)

    def test_proof_length_bounded_by_height(self):
        tree = MerkleTree([b"x"] * 33)
        for i in range(33):
            assert tree.proof(i).length <= tree.height

    def test_wire_size(self):
        proof = MerkleTree([b"a", b"b", b"c", b"d"]).proof(0)
        assert proof.wire_size == proof.length * 21 + 8  # sha1 + flag + header


class TestSuites:
    def test_sha256_tree(self, monkeypatch):
        monkeypatch.setattr(hashes, "SUITE", SHA256)
        tree = MerkleTree([b"a", b"b", b"c"])
        assert len(tree.root) == 32
        proof = tree.proof(2)
        assert MerkleTree.verify_detached(b"c", proof, tree.root)
        # Cross-suite verification must fail.
        monkeypatch.setattr(hashes, "SUITE", SHA1)
        assert not MerkleTree.verify_detached(b"c", proof, tree.root)


class TestProperties:
    @given(st.lists(st.binary(max_size=32), min_size=1, max_size=40), st.data())
    @settings(max_examples=50)
    def test_random_trees_all_leaves_verify(self, leaves, data):
        tree = MerkleTree(leaves)
        index = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
        assert tree.verify(leaves[index], tree.proof(index), tree.root)

    @given(
        st.lists(st.binary(min_size=1, max_size=32), min_size=2, max_size=20),
        st.data(),
    )
    @settings(max_examples=50)
    def test_tampered_leaf_never_verifies(self, leaves, data):
        tree = MerkleTree(leaves)
        index = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
        tampered = leaves[index] + b"\x00"
        assert not tree.verify(tampered, tree.proof(index), tree.root)
