"""The replicated revocation feed.

A feed is an append-only, per-OID-serial-monotone log of verified
revocation statements. Object servers each host one (exposed over the
``revocation.fetch`` / ``revocation.publish`` RPCs); the replication
coordinator pushes new statements to every site it manages, and client
proxies pull deltas on their staleness schedule.

The feed is *untrusted infrastructure*, like every other GlobeDoc
service: it verifies statements on publish only to keep garbage out of
its own log, but consumers re-verify every statement themselves — a
malicious feed can suppress revocations (a staleness/denial attack the
client's max-staleness window bounds) but can never forge one.

Durability
----------
With a :class:`~repro.storage.store.DurableStore` attached, every
accepted statement is journaled before ``publish`` returns and the
whole log recovers across restarts. This is security-critical, not a
convenience: a feed that restarts *empty* silently re-opens the
fail-open window revocation exists to close (consumers see ``head`` at
zero and fetch nothing). Recovered statements are re-verified through
the full publish discipline — signature, self-certification, serial
monotonicity, payload identity — and recovery fails closed
(:class:`~repro.errors.RecoveryIntegrityError`) on any record that no
longer proves out: a CRC-valid but unverifiable statement means the
store was tampered with at rest.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import ReproError
from repro.revocation.statement import RevocationStatement

__all__ = ["RevocationFeed"]


class RevocationFeed:
    """An ordered log of revocation statements with delta fetch.

    ``head`` is the log length; ``fetch(since=head)`` returns only
    statements appended after a consumer's last sync. Publishing is
    idempotent on (OID, serial) *with identical payload* and rejects
    non-monotone serials per OID, so replayed or reordered pushes cannot
    corrupt the log — and a re-publish that reuses an existing (OID,
    serial) with *different* content is rejected as a poisoning attempt,
    never absorbed as a benign duplicate.
    """

    def __init__(self, clock=None, store=None) -> None:
        self.clock = clock
        self.store = store
        self._log: List[RevocationStatement] = []
        self._by_key: Dict[Tuple[str, int], RevocationStatement] = {}
        self._max_serial: Dict[str, int] = {}
        #: Statements reloaded (and re-verified) from the durable store.
        self.recovered = 0
        if store is not None:
            self._recover()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def _recover(self) -> None:
        """Replay the persisted log through the full publish discipline."""

        def admit(record) -> None:
            if record["op"] != "publish":
                raise ReproError(f"unknown operation {record['op']!r}")
            self._publish_in_memory(RevocationStatement.from_dict(record["statement"]))
            self.recovered += 1

        self.store.replay(admit)

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------

    def _publish_in_memory(self, statement: RevocationStatement) -> bool:
        """The verification + append path, shared by publish and recovery.

        Raises on an invalid statement (bad signature, key/OID mismatch),
        a non-monotone serial, or a payload-mismatched re-publish; False
        for an exact duplicate.
        """
        statement.verify(clock=self.clock)
        key = (statement.oid_hex, statement.serial)
        existing = self._by_key.get(key)
        if existing is not None:
            # Idempotence covers *identical* statements only. A different
            # payload under a published (OID, serial) is an attempt to
            # shadow the genuine statement (and would corrupt WAL replay,
            # which relies on publish being deterministic).
            if (
                existing.certificate.envelope.signed_bytes
                != statement.certificate.envelope.signed_bytes
            ):
                raise ReproError(
                    f"conflicting re-publish for {statement.oid_hex[:12]}… "
                    f"serial {statement.serial}: payload differs from the "
                    "statement already in the log (poisoning attempt)"
                )
            return False
        last = self._max_serial.get(statement.oid_hex, 0)
        if statement.serial <= last:
            raise ReproError(
                f"revocation serial {statement.serial} is not monotone for "
                f"{statement.oid_hex[:12]}… (last published: {last})"
            )
        self._log.append(statement)
        self._by_key[key] = statement
        self._max_serial[statement.oid_hex] = statement.serial
        return True

    def publish(self, statement: RevocationStatement) -> bool:
        """Append a verified statement; False if already present.

        Raises on an invalid statement (bad signature, key/OID mismatch),
        a serial at or below an already-published serial for the same
        OID, or a payload-mismatched re-use of a published (OID, serial)
        — all are feed-poisoning attempts, not revocations. With a
        durable store attached, the statement is journaled before this
        returns.
        """
        added = self._publish_in_memory(statement)
        if added and self.store is not None:
            self.store.append({"op": "publish", "statement": statement.to_dict()})
            self.store.maybe_compact(self._live_records)
        return added

    def _live_records(self) -> List[dict]:
        return [{"op": "publish", "statement": s.to_dict()} for s in self._log]

    def compact(self) -> None:
        """Rewrite the journal down to the live log (explicit compaction)."""
        if self.store is not None:
            self.store.compact(self._live_records())

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------

    @property
    def head(self) -> int:
        return len(self._log)

    def max_serial(self, oid_hex: str) -> int:
        """Highest published serial for *oid_hex* (0 if none)."""
        return self._max_serial.get(oid_hex, 0)

    def fetch(self, since: int = 0) -> dict:
        """Wire-format delta: statements appended after position *since*."""
        since = max(0, int(since))
        return {
            "head": self.head,
            "statements": [s.to_dict() for s in self._log[since:]],
        }

    def statements(self) -> List[RevocationStatement]:
        return list(self._log)

    def statements_for(self, oid_hex: str) -> List[RevocationStatement]:
        return [s for s in self._log if s.oid_hex == oid_hex]

    def __len__(self) -> int:
        return len(self._log)
