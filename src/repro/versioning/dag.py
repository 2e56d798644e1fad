"""The content-addressed version DAG and its causal frontier.

Deltas hash-link their parents (UStore-style), so holding a delta id
commits to the exact bytes of its whole ancestry. A :class:`DeltaDag`
only ever admits a delta whose parents are already present — insertion
order is therefore a topological order, and *membership of a head
implies membership of its entire branch*. So a head set names a whole
history: replicas sync by exchanging frontiers, and a replica whose
claimed heads are not the frontier of what the client verified plus
what it shipped is hiding a branch (``BranchWithholdingError``).

The :class:`Frontier` (the set of heads — deltas no other delta names as
a parent) replaces the single version counter of the one-writer design:
two frontiers are comparable by DAG containment rather than integer
order, which is exactly the partial order of causal histories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import VersioningError
from repro.versioning.delta import SignedDelta

__all__ = ["DeltaDag", "Frontier"]


@dataclass(frozen=True)
class Frontier:
    """A causal frontier: the sorted tuple of head delta ids."""

    heads: Tuple[str, ...]

    @classmethod
    def of(cls, heads: Iterable[str]) -> "Frontier":
        return cls(heads=tuple(sorted(set(heads))))

    @classmethod
    def empty(cls) -> "Frontier":
        return cls(heads=())

    @property
    def is_empty(self) -> bool:
        return not self.heads

    def to_list(self) -> List[str]:
        return list(self.heads)

    @classmethod
    def from_list(cls, data: Iterable[str]) -> "Frontier":
        return cls.of(str(h) for h in data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Frontier({[h[:8] for h in self.heads]})"


class DeltaDag:
    """Hash-linked delta DAG for one object.

    Admission is parents-first (:meth:`add` refuses a dangling parent),
    so the internal insertion order doubles as a topological order for
    serving and journaling. Verification is the *caller's* job — the
    DAG stores what it is given and maintains structure only.
    """

    def __init__(self) -> None:
        self._deltas: Dict[str, SignedDelta] = {}
        self._order: List[str] = []
        #: Maintained by :meth:`add` so a writer composing, a server
        #: fetching and a reader folding pay for the deltas that arrive,
        #: not for a scan of the history. Replaced, never mutated, so a
        #: concurrent reader sees the frontier before or after a delta.
        self._heads: FrozenSet[str] = frozenset()
        self._lamport_max = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add(self, delta: SignedDelta) -> bool:
        """Admit *delta*; False if already present (idempotent).

        Raises :class:`~repro.errors.VersioningError` when a parent is
        missing — callers with out-of-order batches use :meth:`add_all`,
        which resolves ordering and reports genuinely dangling parents.
        """
        delta_id = delta.delta_id
        if delta_id in self._deltas:
            return False
        missing = [p for p in delta.parents if p not in self._deltas]
        if missing:
            raise VersioningError(
                f"delta {delta_id[:12]}… names missing parent(s) "
                f"{[p[:12] for p in missing]} — ancestry must be admitted first"
            )
        self._admit(delta)
        return True

    def _admit(self, delta: SignedDelta) -> None:
        """Record a new delta whose parents are known to be present."""
        self._deltas[delta.delta_id] = delta
        self._order.append(delta.delta_id)
        self._heads = self._retire_parents(self._heads, delta)
        self._lamport_max = max(self._lamport_max, delta.lamport)

    @staticmethod
    def _retire_parents(heads: FrozenSet[str], delta: SignedDelta) -> FrozenSet[str]:
        """The head rule, given parents-first admission: a delta is a
        head on arrival (its children can only come later) and its
        parents stop being heads then."""
        return heads.difference(delta.parents) | {delta.delta_id}

    def frontier_after(self, order: Iterable[SignedDelta]) -> Frontier:
        """The frontier this DAG would have once *order* (an
        :meth:`admission_order`) is admitted; admits nothing."""
        heads = self._heads
        for delta in order:
            heads = self._retire_parents(heads, delta)
        return Frontier.of(heads)

    def admission_order(self, deltas: Iterable[SignedDelta]) -> List[SignedDelta]:
        """The batch's not-yet-admitted deltas, parents first; admits nothing.

        Duplicates collapse by id, and children may precede parents in
        the input (iterates to a fixpoint). Deltas whose ancestry is in
        neither the DAG nor the batch raise
        :class:`~repro.errors.VersioningError` — a served batch with
        dangling parents is a withheld ancestor. Planning apart from
        admitting is what lets a caller with more to check (the frontier
        check) judge closure first and admit only once nothing can fail.
        """
        pending = list(
            {d.delta_id: d for d in deltas if d.delta_id not in self._deltas}.values()
        )
        order: List[SignedDelta] = []
        placed: Set[str] = set()
        while pending:
            still: List[SignedDelta] = []
            for delta in pending:
                if all(p in self._deltas or p in placed for p in delta.parents):
                    order.append(delta)
                    placed.add(delta.delta_id)
                else:
                    still.append(delta)
            if len(still) == len(pending):
                missing = sorted(
                    {
                        p
                        for delta in still
                        for p in delta.parents
                        if p not in self._deltas and p not in placed
                    }
                )
                raise VersioningError(
                    f"{len(still)} delta(s) reference parent(s) absent from "
                    f"the batch and the DAG: {[p[:12] for p in missing]}"
                )
            pending = still
        return order

    def add_all(self, deltas: Iterable[SignedDelta]) -> int:
        """Admit a batch in any order; returns the number newly added.

        All or nothing: :meth:`admission_order` raises for a batch that
        does not close before any of it is admitted.
        """
        order = self.admission_order(deltas)
        for delta in order:
            self._admit(delta)
        return len(order)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._deltas)

    def __contains__(self, delta_id: str) -> bool:
        return delta_id in self._deltas

    def get(self, delta_id: str) -> SignedDelta:
        return self._deltas[delta_id]

    @property
    def delta_ids(self) -> List[str]:
        """All delta ids in admission (= topological) order."""
        return list(self._order)

    @property
    def deltas(self) -> List[SignedDelta]:
        """All deltas in admission (= topological) order."""
        return [self._deltas[delta_id] for delta_id in self._order]

    def heads(self) -> List[str]:
        """Delta ids no admitted delta names as a parent (sorted)."""
        return sorted(self._heads)

    def frontier(self) -> Frontier:
        return Frontier.of(self._heads)

    def lamport_max(self) -> int:
        return self._lamport_max

    def ancestors(self, delta_ids: Sequence[str]) -> Set[str]:
        """The ancestor closure of *delta_ids* (inclusive)."""
        seen: Set[str] = set()
        stack = [d for d in delta_ids if d in self._deltas]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._deltas[current].parents)
        return seen

    def missing_from(
        self, have_heads: Iterable[str], heads: Optional[Iterable[str]] = None
    ) -> List[SignedDelta]:
        """``ancestors(heads) − ancestors(have_heads)``, parents first:
        what a replica at *have_heads* lacks below *heads* (default: this
        DAG's own). Walks back from the newest delta only until nothing
        wanted is unsettled — equal heads walk nothing — and a child is
        always visited before its parents, so "below *have_heads*" is
        known on arrival. A have-head this DAG lacks subtracts nothing."""
        have = {h for h in have_heads if h in self._deltas}
        want = set(self._heads if heads is None else heads) - have
        shipped: List[SignedDelta] = []
        for delta_id in reversed(self._order):
            if not want:
                break
            delta = self._deltas[delta_id]
            if delta_id in have:
                have.update(delta.parents)
            elif delta_id in want:
                want.update(delta.parents)
                shipped.append(delta)
            want.discard(delta_id)
        shipped.reverse()
        return shipped

    def dominates(self, frontier: Frontier) -> bool:
        """Does this DAG contain everything below *frontier*?

        Because admission is parents-first, holding a head implies
        holding its whole branch, so containment of the heads is
        containment of the history.
        """
        return all(head in self._deltas for head in frontier.heads)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DeltaDag({len(self._deltas)} deltas, heads={len(self._heads)})"
