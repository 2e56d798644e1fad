"""Incremental ≡ from scratch, over generated histories and read batches.

The invariant, stated once: whatever batches a reader's verified state
was folded from — in whatever order within a batch, with whatever was
served twice — it equals ``merge_deltas`` of everything admitted, field
for field. ``merge_deltas`` is the specification; the bound state of
:meth:`~repro.proxy.checks.SecurityChecker.check_frontier` is the
implementation under test.

Hypothesis draws the history (three writer ids, one of them re-keyed by
the owner so it signs under two keys; each delta picks any subset of the
current heads as parents, so branches fork, run concurrently at equal
Lamport times and re-merge; one to three put/delete ops per delta) and
where the reads fall; a failure shrinks to a replayable example.
"""

from __future__ import annotations

import os
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.proxy.checks import SecurityChecker
from repro.sim.clock import SimClock
from repro.versioning import DeltaDag, DeltaOp, SignedDelta, WriterGrant, merge_deltas
from repro.versioning.delta import OP_DELETE, OP_PUT
from repro.versioning.merge import MergedDocument

from tests.conftest import EPOCH, fast_keys

ELEMENTS = ["index.html", "style.css", "logo.png"]

#: Signer slots as (writer id, key slot): ``w0`` holds two granted keys.
SIGNERS = [("w0", 0), ("w0", 1), ("w1", 2), ("w2", 3)]

# Small inside tier-1; a requested profile (conftest's ``deep``) governs.
budget = (
    settings(deadline=None)
    if "HYPOTHESIS_PROFILE" in os.environ
    else settings(max_examples=60, deadline=None)
)

step = st.tuples(
    st.integers(0, len(SIGNERS) - 1),  # who signs
    st.integers(0, 255),  # bitmask over the current heads: its parents
    st.lists(  # its ops: (element, is a delete)
        st.tuples(st.sampled_from(ELEMENTS), st.booleans()), min_size=1, max_size=3
    ),
    st.booleans(),  # a read falls right after this delta
)


@pytest.fixture(scope="module")
def signer_keys():
    return [fast_keys() for _ in range(4)]


@pytest.fixture(scope="module")
def grants(owner_keys, oid, signer_keys):
    return [
        WriterGrant.issue(owner_keys, oid, writer_id, signer_keys[slot].public, granted_at=EPOCH)
        for writer_id, slot in SIGNERS
    ]


def build_history(oid, signer_keys, steps):
    """The drawn steps as signed deltas, parents first."""
    dag = DeltaDag()
    for index, (signer, parent_mask, ops, _) in enumerate(steps):
        writer_id, slot = SIGNERS[signer]
        parents = [h for bit, h in enumerate(dag.heads()) if parent_mask >> bit & 1]
        dag.add(
            SignedDelta.build(
                signer_keys[slot], oid, writer_id,
                lamport=1 + max((dag.get(p).lamport for p in parents), default=0),
                parents=parents,
                ops=[
                    DeltaOp(OP_DELETE, name) if delete
                    else DeltaOp(OP_PUT, name, b"%d by %s" % (index, writer_id.encode()))
                    for name, delete in ops
                ],
                issued_at=EPOCH + index,
            )
        )
    return dag.deltas


@budget
@given(steps=st.lists(step, min_size=1, max_size=14), noise=st.randoms(use_true_random=False))
def test_bound_state_equals_merge_of_everything_admitted(
    owner_keys, oid, signer_keys, grants, steps, noise
):
    history = build_history(oid, signer_keys, steps)
    checker = SecurityChecker(SimClock(EPOCH + 100.0))
    bound, admitted, batch = None, [], []
    for delta, (_, _, _, read_here) in zip(history, steps):
        batch.append(delta)
        if not read_here and delta is not history[-1]:
            continue
        # What the server ships: the news in any order, some of it twice,
        # and some of what this reader already holds served again.
        served = batch + noise.sample(batch, noise.randint(0, len(batch)))
        served += noise.sample(admitted, noise.randint(0, len(admitted)))
        noise.shuffle(served)
        admitted += batch
        batch = []
        reference = merge_deltas(admitted, oid_hex=oid.hex)
        heads = reference.frontier
        bound = checker.check_frontier(
            oid, owner_keys.public, grants, served, heads, bound=bound
        )

        for name in (f.name for f in fields(MergedDocument)):
            assert getattr(bound.merged, name) == getattr(reference, name), name
        # The tables beside the document say the same thing it does.
        assert bound.dag.frontier() == reference.frontier
        assert bound.dag.lamport_max() == reference.lamport
        assert sorted(bound.dag.delta_ids) == sorted(d.delta_id for d in admitted)
        assert {name: key[2] for name, (key, _) in bound.winners.items()} == reference.winners
        assert set(bound.signers) == {(d.writer_id, d.writer_key.der) for d in admitted}

        # A read with no news changes nothing and re-merges nothing.
        merged = bound.merged
        assert (
            checker.check_frontier(oid, owner_keys.public, grants, [], heads, bound=bound)
            is bound
        )
        assert bound.merged is merged
