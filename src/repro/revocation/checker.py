"""Client-side revocation checking.

The :class:`RevocationChecker` is the proxy's view of the revocation
feed: it pulls deltas from an object server's ``revocation.fetch`` RPC,
verifies every statement itself (the feed is untrusted), and answers the
seventh security check — *is anything about this OID revoked?*

Staleness policy (fail closed)
------------------------------
The checker keeps the time of its last successful sync. A check first
ensures the local view is no older than ``poll_interval`` (refreshing
over RPC when it is); if the refresh fails **and** the view is older
than ``max_staleness`` — or the checker has never synced at all — the
check raises :class:`~repro.errors.RevocationStalenessError` for the
affected OID instead of serving content it cannot prove unrevoked. A
feed that merely *withholds* statements is thus bounded to a
``max_staleness``-sized containment delay; a feed that is unreachable
degrades to denial of service, never to serving revoked content.

Cache purges
------------
On first sight of a revocation the checker purges the matching
:class:`~repro.crypto.verifycache.VerificationCache` verdicts (every
memoized success under the revoked issuer key) and
:class:`~repro.proxy.contentcache.ContentCache` entries (the whole
object for key scope, the named element for element scope) — a warm
cache must forget a compromised key at the same instant the check
starts rejecting it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import (
    FeedRegressionError,
    NetworkError,
    RevocationStalenessError,
    RevokedElementError,
    RevokedKeyError,
)
from repro.globedoc.oid import ObjectId
from repro.obs import NOOP_TRACER
from repro.revocation.statement import SCOPE_KEY, SCOPE_WRITER, RevocationStatement

__all__ = ["RevocationChecker", "RevocationCheckerStats"]


@dataclass
class RevocationCheckerStats:
    """Running counters of one checker (feed-overhead accounting)."""

    refreshes: int = 0
    statements_recovered: int = 0


class RevocationChecker:
    """Pulls, verifies, and indexes revocation statements for a client.

    ``poll_interval``, half the staleness window, is how long a synced
    view is reused before the next refresh RPC: it trades containment
    latency against steady-state feed overhead.
    """

    def __init__(
        self,
        rpc,
        feed_target,
        clock,
        max_staleness: float = 60.0,
        verification_cache=None,
        content_cache=None,
        metrics=None,
        store=None,
        tracer=None,
    ) -> None:
        if max_staleness <= 0:
            raise ValueError(f"max_staleness must be positive, got {max_staleness}")
        self.rpc = rpc
        self.feed_target = feed_target
        self.clock = clock
        #: Optional: wraps each feed pull in a ``revocation.refresh``
        #: span (a root when the poll fires outside any access).
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.max_staleness = max_staleness
        self.poll_interval = max_staleness / 2.0
        self.verification_cache = verification_cache
        self.content_cache = content_cache
        self.stats = RevocationCheckerStats()
        self._head = 0
        self._synced_at: Optional[float] = None
        self._by_oid: Dict[str, List[RevocationStatement]] = {}
        #: Durable cursor: the consumer's synced head plus its verified
        #: statement view. Persisting the head alone would be a trap —
        #: a cursor past statements the local view does not hold would
        #: skip them forever — so head and statements travel together.
        self.store = store
        if store is not None:
            self._recover()
        # ``metrics`` is accepted but unused: ``perf/`` still passes it
        # (ROADMAP 1(a)/8(a) remove it).

    # ------------------------------------------------------------------
    # Durable cursor recovery
    # ------------------------------------------------------------------

    def _recover(self) -> None:
        """Rebuild the synced view from the cursor store, re-verifying.

        Statements read back from disk are untrusted until their
        signatures check (identical to fetched statements); a record
        that no longer verifies fails recovery closed — it means the
        cursor store was tampered with, and trusting the head it came
        with would silently skip genuine revocations.
        """

        def admit(record) -> None:
            op = record["op"]
            if op == "head":
                self._head = max(self._head, int(record["head"]))
                return
            if op != "ingest":
                raise ValueError(f"unknown operation {op!r}")
            statement = RevocationStatement.from_dict(record["statement"])
            statement.verify(clock=self.clock)
            known = self._by_oid.setdefault(statement.oid_hex, [])
            if any(s.serial == statement.serial for s in known):
                return
            known.append(statement)
            self.stats.statements_recovered += 1
            self._purge_caches(statement)

        self.store.replay(admit)
        # _synced_at stays None: a recovered view proves what *was*
        # revoked, never that nothing new is — the first check still
        # refreshes (or fails closed on staleness) before vouching.

    def _live_records(self) -> list:
        """Every held statement as an ``ingest``, then the synced head."""
        records = [
            {"op": "ingest", "statement": s.to_dict()}
            for statements in self._by_oid.values()
            for s in statements
        ]
        return records + [{"op": "head", "head": self._head}]

    def _journal(self, record: dict) -> None:
        if self.store is None:
            return
        self.store.append(record)
        self.store.maybe_compact(self._live_records)

    # ------------------------------------------------------------------
    # Feed synchronisation
    # ------------------------------------------------------------------

    @property
    def head(self) -> int:
        """Highest feed serial this checker has synced through."""
        return self._head

    @property
    def staleness(self) -> Optional[float]:
        """Seconds since the last successful sync (None: never synced)."""
        if self._synced_at is None:
            return None
        return max(0.0, self.clock.now() - self._synced_at)

    def refresh(self) -> int:
        """Pull the delta since our head; returns statements ingested.

        Propagates :class:`~repro.errors.NetworkError` — callers decide
        whether the stale view is still within the staleness window.

        Raises :class:`~repro.errors.FeedRegressionError` — immediately,
        regardless of the staleness window — when the feed's head is
        *behind* this consumer's synced cursor: a feed that restarted
        empty (losing its log) or a malicious rollback. Either way the
        feed can no longer vouch for the statements this consumer has
        already seen, so the consumer must not treat its answers as a
        successful sync.
        """
        with self.tracer.span("revocation.refresh", since=self._head) as span:
            answer = self.rpc.call(
                self.feed_target, "revocation.fetch", since=self._head
            )
            head = int(answer["head"])
            if head < self._head:
                raise FeedRegressionError(
                    f"revocation feed head regressed from {self._head} to {head}: "
                    "the feed lost statements (restart without its log, or a "
                    "rollback attack) — failing closed"
                )
            self.stats.refreshes += 1
            ingested = 0
            for raw in answer.get("statements", []):
                if self._ingest(raw):
                    ingested += 1
            # Advance past invalid entries too: they are the feed's
            # garbage, not ours, and re-fetching them forever helps
            # nobody.
            if head > self._head:
                self._head = head
                self._journal({"op": "head", "head": head})
            self._synced_at = self.clock.now()
            span.set_attribute("ingested", ingested)
            span.set_attribute("head", head)
            return ingested

    def _ingest(self, raw) -> bool:
        try:
            statement = RevocationStatement.from_dict(raw)
            statement.verify(clock=self.clock)
        except Exception:
            # A malformed, forged or corrupted statement must not revoke
            # anything — and must not crash the sync that carries
            # genuine ones.
            return False
        known = self._by_oid.setdefault(statement.oid_hex, [])
        if any(s.serial == statement.serial for s in known):
            return False
        known.append(statement)
        self._journal({"op": "ingest", "statement": statement.to_dict()})
        self._purge_caches(statement)
        return True

    def _purge_caches(self, statement: RevocationStatement) -> None:
        """First-sight purge: forget every cached artifact the statement
        condemns before the next lookup can replay it."""
        if self.verification_cache is not None:
            self.verification_cache.invalidate_key(statement.issuer_key)
        if self.content_cache is not None:
            if statement.scope in (SCOPE_KEY, SCOPE_WRITER):
                # Writer scope also purges the whole object: a revoked
                # writer's deltas may be merged into any cached element.
                self.content_cache.invalidate_object(statement.oid_hex)
            elif statement.element is not None:
                self.content_cache.invalidate_element(
                    statement.oid_hex, statement.element
                )

    def _ensure_fresh(self, oid: ObjectId) -> None:
        staleness = self.staleness
        if staleness is not None and staleness <= self.poll_interval:
            return
        try:
            self.refresh()
        except NetworkError as exc:
            staleness = self.staleness
            if staleness is None or staleness > self.max_staleness:
                raise RevocationStalenessError(
                    f"cannot prove OID {oid.hex[:12]}… unrevoked: revocation "
                    f"feed unreachable and local view is "
                    f"{'absent' if staleness is None else f'{staleness:.1f}s stale'} "
                    f"(max staleness {self.max_staleness:.1f}s)"
                ) from exc
            # Stale but within the window: serve on the last good view.

    # ------------------------------------------------------------------
    # The check itself
    # ------------------------------------------------------------------

    def check(
        self,
        oid: ObjectId,
        element_name: Optional[str] = None,
        cert_version: Optional[int] = None,
    ) -> None:
        """Raise iff the OID (or the named element) is revoked — or the
        feed view is too stale to say otherwise.

        Known revocations are consulted *before* the freshness gate: a
        statement already verified condemns its target no matter how
        stale the view is (rejection needs no proof of currency — only
        vouching does). This is what makes a restart window-free: a
        checker recovered from its durable cursor rejects a revoked OID
        immediately, before it has managed to reach the feed at all.
        """
        self._reject_if_known_revoked(oid, element_name, cert_version)
        self._ensure_fresh(oid)
        # The view may have grown during the refresh: re-check it.
        self._reject_if_known_revoked(oid, element_name, cert_version)

    def _reject_if_known_revoked(
        self,
        oid: ObjectId,
        element_name: Optional[str],
        cert_version: Optional[int],
    ) -> None:
        for statement in self._by_oid.get(oid.hex, ()):  # newest need not win: any hit rejects
            if statement.scope == SCOPE_KEY:
                raise RevokedKeyError(
                    f"object key for OID {oid.hex[:12]}… was revoked at "
                    f"{statement.issued_at} (serial {statement.serial}: "
                    f"{statement.reason})"
                )
            if element_name is not None and statement.covers(element_name, cert_version):
                raise RevokedElementError(
                    f"element {element_name!r} of OID {oid.hex[:12]}… was "
                    f"revoked at {statement.issued_at} through certificate "
                    f"version {statement.cert_version} (serial "
                    f"{statement.serial}: {statement.reason})"
                )

    def known_statements(self, oid: ObjectId) -> List[RevocationStatement]:
        return list(self._by_oid.get(oid.hex, ()))

    def revoked_writers(self, oid: ObjectId) -> set:
        """Writer ids condemned for *oid* in the current verified view.

        Pure lookup — freshness is the caller's concern: the frontier
        check runs :meth:`check` (which enforces the staleness window)
        before consulting this set, so a stale view can never vouch.
        """
        return {
            statement.writer
            for statement in self._by_oid.get(oid.hex, ())
            if statement.scope == SCOPE_WRITER and statement.writer
        }
