"""Property sweep: the LWW merge is a join — replicas must converge.

Strong eventual consistency needs merge to be a pure function of the
delta *set* with the algebraic laws of a join semilattice:

* **commutative / order-free** — any permutation of the same history
  merges to byte-identical state;
* **associative / partition-free** — merging any two covering subsets'
  union equals merging the whole;
* **idempotent** — duplicated deltas change nothing.

Rather than proving the laws, we bombard them: 200+ seeded random
multi-writer histories (random writer count, branching, concurrent
edits to the same elements, deletes), each checked under random
permutations and random partitions. RSA signing would dominate the
sweep, so histories are built from a tiny pool of pre-signed writers
and the per-delta signature is exercised once in ``test_pool_deltas_verify``.
"""

from __future__ import annotations

import random

import pytest

from repro.globedoc.oid import ObjectId
from repro.versioning import DeltaDag, DeltaOp, SignedDelta, merge_deltas
from repro.versioning.delta import OP_DELETE, OP_PUT

from tests.conftest import fast_keys

SEEDS = range(220)
ELEMENT_POOL = ["index.html", "style.css", "logo.png"]

_OWNER = fast_keys()
_OID = ObjectId.from_public_key(_OWNER.public)
_WRITER_KEYS = {f"w{i}": fast_keys() for i in range(3)}


def random_history(seed: int):
    """One seeded multi-writer history as a list of signed deltas.

    Each step picks a writer, a random subset of current heads as
    parents (creating branches and merges), and 1-2 random put/delete
    ops — concurrent same-element edits are common by construction.
    """
    rng = random.Random(seed)
    dag = DeltaDag()
    writers = rng.sample(sorted(_WRITER_KEYS), rng.randint(1, len(_WRITER_KEYS)))
    for step in range(rng.randint(2, 10)):
        writer_id = rng.choice(writers)
        heads = dag.heads()
        parents = rng.sample(heads, rng.randint(0, len(heads)))
        ops = []
        for _ in range(rng.randint(1, 2)):
            name = rng.choice(ELEMENT_POOL)
            if rng.random() < 0.2:
                ops.append(DeltaOp(OP_DELETE, name))
            else:
                content = bytes(f"{writer_id}/{step}/{rng.random():.9f}", "ascii")
                ops.append(DeltaOp(OP_PUT, name, content))
        dag.add(
            SignedDelta.build(
                _WRITER_KEYS[writer_id], _OID, writer_id,
                dag.lamport_max() + 1, parents, ops, issued_at=float(step),
            )
        )
    return dag.deltas


def digest_of(deltas) -> str:
    return merge_deltas(deltas, oid_hex=_OID.hex).digest_hex


def test_pool_deltas_verify():
    """The shared pool signs genuinely (sampled once, not per seed)."""
    for delta in random_history(0):
        delta.verify(_OID)


@pytest.mark.parametrize("seed", SEEDS)
def test_merge_laws_hold(seed):
    deltas = random_history(seed)
    rng = random.Random(seed * 7919 + 1)
    reference = digest_of(deltas)

    # Commutativity: three random permutations, byte-identical merges.
    for _ in range(3):
        shuffled = list(deltas)
        rng.shuffle(shuffled)
        assert digest_of(shuffled) == reference

    # Idempotence: duplicating a random sample changes nothing.
    duplicated = list(deltas) + rng.sample(deltas, rng.randint(1, len(deltas)))
    assert digest_of(duplicated) == reference

    # Associativity / partition-independence: two overlapping covers
    # merge element-wise to the same winners as the whole.
    split = rng.randint(0, len(deltas))
    left, right = deltas[:split], deltas[split:]
    overlap = rng.sample(deltas, rng.randint(0, len(deltas)))
    merged = merge_deltas(
        list(left) + list(overlap) + list(right), oid_hex=_OID.hex
    )
    assert merged.digest_hex == reference


@pytest.mark.parametrize("seed", [3, 17, 99])
def test_replica_exchange_converges(seed):
    """Two DAGs covering different subsets converge after exchange."""
    deltas = random_history(seed)
    rng = random.Random(seed)
    ids = [d.delta_id for d in deltas]
    replica_a, replica_b = DeltaDag(), DeltaDag()
    replica_a.add_all(deltas)  # full replica
    # B holds an ancestor-closed subset (any replica's state is one).
    known = replica_a.ancestors(rng.sample(ids, rng.randint(0, len(ids))))
    replica_b.add_all(d for d in deltas if d.delta_id in known)
    # Anti-entropy: B pulls what it lacks from A.
    replica_b.add_all(replica_a.missing_from(replica_b.heads()))
    assert sorted(replica_b.delta_ids) == sorted(replica_a.delta_ids)
    assert digest_of(replica_b.deltas) == digest_of(replica_a.deltas)
