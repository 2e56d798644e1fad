"""The heads exchange delivers the closure, and only the closure.

*Verifying Strong Eventual Consistency* (PAPERS.md) reduces convergence
to "same delivered set ⇒ same state", which ``merge_deltas`` has, plus
one obligation on the sync protocol: the exchange must deliver the
ancestor closure of what the server holds. Here that obligation is
stated over the wire bundle itself: a reader bound at some frontier
sends it as ``have_heads`` to a :class:`VersionedObjectStore`, and the
eighth check judges the answer.

Hypothesis draws one history (writers fork concurrent branches and
re-merge them) and two ancestor-closed cuts of it: what the server holds
and what the reader has bound. Three properties:

* reader ⊆ server: the answer ships exactly server − reader, parents
  first, and the check binds the server's heads and its merge;
* the server lacks a delta the reader holds (a rollback): the check
  raises :class:`~repro.errors.BranchWithholdingError`;
* the verdict is the id-list rule the exchange replaced: accept iff
  every bound head is in the honest server's id set.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BranchWithholdingError
from repro.proxy.checks import SecurityChecker
from repro.sim.clock import SimClock
from repro.versioning import (
    DeltaDag,
    DeltaOp,
    Frontier,
    SignedDelta,
    VersionedObjectStore,
    WriterGrant,
    merge_deltas,
)
from repro.versioning.delta import OP_PUT

from tests.conftest import EPOCH, fast_keys

WRITERS = ["w0", "w1", "w2"]
MAX_DELTAS = 12

# Small inside tier-1; a requested profile (conftest's ``deep``) governs.
budget = (
    settings(deadline=None)
    if "HYPOTHESIS_PROFILE" in os.environ
    else settings(max_examples=60, deadline=None)
)

step = st.tuples(
    st.integers(0, len(WRITERS) - 1),  # who signs
    st.integers(0, 255),  # bitmask over the current heads: its parents
)
#: Bitmask over the history: the cut is everything below the picked deltas.
cut_mask = st.integers(0, 2**MAX_DELTAS - 1)


@pytest.fixture(scope="module")
def writers(owner_keys, oid):
    keys = [fast_keys() for _ in WRITERS]
    grants = [
        WriterGrant.issue(owner_keys, oid, writer_id, key.public, granted_at=EPOCH)
        for writer_id, key in zip(WRITERS, keys)
    ]
    return keys, grants


def build_history(oid, keys, steps) -> DeltaDag:
    dag = DeltaDag()
    for index, (signer, parent_mask) in enumerate(steps):
        parents = [h for bit, h in enumerate(dag.heads()) if parent_mask >> bit & 1]
        dag.add(
            SignedDelta.build(
                keys[signer], oid, WRITERS[signer],
                lamport=1 + max((dag.get(p).lamport for p in parents), default=0),
                parents=parents,
                ops=[DeltaOp(OP_PUT, f"e{index % 3}", b"%d" % index)],
                issued_at=EPOCH + index,
            )
        )
    return dag


def cut(history: DeltaDag, mask: int) -> DeltaDag:
    """The ancestor-closed sub-DAG below the deltas *mask* picks."""
    picked = [d.delta_id for bit, d in enumerate(history.deltas) if mask >> bit & 1]
    below = history.ancestors(picked)
    dag = DeltaDag()
    dag.add_all(d for d in history.deltas if d.delta_id in below)
    return dag


@budget
@given(
    steps=st.lists(step, min_size=1, max_size=MAX_DELTAS),
    server_mask=cut_mask,
    reader_mask=cut_mask,
)
def test_heads_exchange_delivers_exactly_the_closure(
    owner_keys, oid, writers, steps, server_mask, reader_mask
):
    keys, grants = writers
    history = build_history(oid, keys, steps)
    server_dag, reader_dag = cut(history, server_mask), cut(history, reader_mask)

    store = VersionedObjectStore()
    store.register_object(owner_keys.public)
    for grant in grants:
        store.put_grant(oid.hex, grant)
    for delta in server_dag.deltas:
        store.put_delta(oid.hex, delta)

    checker = SecurityChecker(SimClock(EPOCH + 100.0))
    bound = None
    if len(reader_dag):
        bound = checker.check_frontier(
            oid, owner_keys.public, grants, reader_dag.deltas, reader_dag.frontier()
        )
    bundle = store.fetch(
        oid.hex, have_heads=reader_dag.heads() if bound is not None else None
    )
    shipped = [SignedDelta.from_dict(d) for d in bundle["deltas"]]
    try:
        verdict = checker.check_frontier(
            oid, owner_keys.public, grants, shipped, Frontier.of(bundle["heads"]),
            bound=bound,
        )
    except BranchWithholdingError:
        verdict = None

    # The rule the exchange replaced, judged against the honest id set.
    old_rule = all(head in server_dag for head in reader_dag.heads())
    assert (verdict is not None) == old_rule
    # Both cuts are ancestor-closed, so the old rule is containment.
    assert old_rule == all(delta_id in server_dag for delta_id in reader_dag.delta_ids)
    if old_rule:
        assert [d.delta_id for d in shipped] == [
            delta_id for delta_id in server_dag.delta_ids if delta_id not in reader_dag
        ]
        assert verdict.merged.frontier == server_dag.frontier()
        assert bundle["heads"] == server_dag.heads()
        assert verdict.merged.digest == merge_deltas(server_dag.deltas, oid_hex=oid.hex).digest
