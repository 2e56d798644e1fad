"""The delta DAG: parents-first admission, frontier, anti-entropy."""

from __future__ import annotations

import pytest

from repro.errors import VersioningError
from repro.versioning import DeltaDag, DeltaOp, Frontier, SignedDelta
from repro.versioning.delta import OP_PUT

from tests.conftest import fast_keys


@pytest.fixture(scope="module")
def writer_keys():
    return fast_keys()


def make_delta(keys, oid, lamport, parents, name="body", content=b"x"):
    return SignedDelta.build(
        keys, oid, "alice", lamport, parents,
        [DeltaOp(OP_PUT, name, content)], issued_at=float(lamport),
    )


class TestAdmission:
    def test_add_is_idempotent(self, writer_keys, oid):
        dag = DeltaDag()
        delta = make_delta(writer_keys, oid, 1, ())
        assert dag.add(delta) is True
        assert dag.add(delta) is False
        assert len(dag) == 1

    def test_dangling_parent_refused(self, writer_keys, oid):
        dag = DeltaDag()
        root = make_delta(writer_keys, oid, 1, ())
        child = make_delta(writer_keys, oid, 2, [root.delta_id])
        with pytest.raises(VersioningError):
            dag.add(child)

    def test_add_all_resolves_any_order(self, writer_keys, oid):
        root = make_delta(writer_keys, oid, 1, ())
        mid = make_delta(writer_keys, oid, 2, [root.delta_id])
        tip = make_delta(writer_keys, oid, 3, [mid.delta_id])
        dag = DeltaDag()
        assert dag.add_all([tip, mid, root]) == 3
        # Admission order is topological even for a reversed batch.
        assert dag.delta_ids == [root.delta_id, mid.delta_id, tip.delta_id]

    def test_add_all_reports_withheld_ancestor(self, writer_keys, oid):
        root = make_delta(writer_keys, oid, 1, ())
        tip = make_delta(writer_keys, oid, 2, [root.delta_id])
        dag = DeltaDag()
        with pytest.raises(VersioningError):
            dag.add_all([tip])  # root withheld

    def test_add_all_admits_nothing_of_a_batch_that_does_not_close(
        self, writer_keys, oid
    ):
        root = make_delta(writer_keys, oid, 1, ())
        withheld = make_delta(writer_keys, oid, 2, [root.delta_id])
        orphan = make_delta(writer_keys, oid, 3, [withheld.delta_id])
        dag = DeltaDag()
        with pytest.raises(VersioningError):
            dag.add_all([root, orphan])
        assert len(dag) == 0
        # The plan itself: new deltas only, once each, parents first.
        dag.add(root)
        plan = dag.admission_order([orphan, withheld, root, orphan])
        assert plan == [withheld, orphan]
        assert dag.frontier_after(plan) == Frontier.of([orphan.delta_id])
        assert len(dag) == 1 and dag.heads() == [root.delta_id]


class TestStructure:
    def test_heads_and_frontier(self, writer_keys, oid):
        dag = DeltaDag()
        root = make_delta(writer_keys, oid, 1, ())
        left = make_delta(writer_keys, oid, 2, [root.delta_id], name="a")
        right = make_delta(writer_keys, oid, 2, [root.delta_id], name="b")
        dag.add_all([root, left, right])
        assert dag.heads() == sorted([left.delta_id, right.delta_id])
        assert dag.frontier() == Frontier.of(dag.heads())
        assert dag.lamport_max() == 2

    def test_maintained_heads_and_lamport_equal_the_scan(self, writer_keys, oid):
        """``add`` maintains the head set and the Lamport maximum; after
        every admission of a branching, re-merging history both must be
        what a scan over all admitted deltas says."""
        root = make_delta(writer_keys, oid, 1, ())
        left = make_delta(writer_keys, oid, 2, [root.delta_id], name="a")
        right = make_delta(writer_keys, oid, 5, [root.delta_id], name="b")
        second_root = make_delta(writer_keys, oid, 1, (), name="c")
        left_tip = make_delta(writer_keys, oid, 3, [left.delta_id], name="a")
        join = make_delta(writer_keys, oid, 6, [left_tip.delta_id, right.delta_id])
        late_fork = make_delta(writer_keys, oid, 3, [left.delta_id], name="d")
        dag = DeltaDag()
        for delta in (root, left, right, second_root, left_tip, join, late_fork):
            dag.add(delta)
            referenced = {p for d in dag.deltas for p in d.parents}
            scanned = sorted(i for i in dag.delta_ids if i not in referenced)
            assert dag.heads() == scanned
            assert dag.frontier() == Frontier.of(scanned)
            assert dag.lamport_max() == max(d.lamport for d in dag.deltas)
        assert dag.heads() == sorted(
            [second_root.delta_id, join.delta_id, late_fork.delta_id]
        )
        assert DeltaDag().heads() == [] and DeltaDag().lamport_max() == 0

    def test_ancestors_is_inclusive_closure(self, writer_keys, oid):
        dag = DeltaDag()
        root = make_delta(writer_keys, oid, 1, ())
        tip = make_delta(writer_keys, oid, 2, [root.delta_id])
        dag.add_all([root, tip])
        assert dag.ancestors([tip.delta_id]) == {root.delta_id, tip.delta_id}

    def test_missing_from_is_the_gossip_payload(self, writer_keys, oid):
        dag = DeltaDag()
        root = make_delta(writer_keys, oid, 1, ())
        tip = make_delta(writer_keys, oid, 2, [root.delta_id])
        dag.add_all([root, tip])
        shipped = dag.missing_from([root.delta_id])
        assert [d.delta_id for d in shipped] == [tip.delta_id]

    def test_dominates_judges_head_containment(self, writer_keys, oid):
        dag = DeltaDag()
        root = make_delta(writer_keys, oid, 1, ())
        tip = make_delta(writer_keys, oid, 2, [root.delta_id])
        dag.add(root)
        assert dag.dominates(Frontier.of([root.delta_id]))
        assert not dag.dominates(Frontier.of([tip.delta_id]))
        assert dag.dominates(Frontier.empty())
