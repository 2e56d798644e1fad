"""The security check pipeline (§3.2.2, §3.3, Fig. 3).

Four client-side checks make data from untrusted replicas trustworthy:

1. the public key retrieved from the replica hashes to the
   self-certifying OID (else the replica is not part of the object);
2. optionally, an identity certificate from a CA in the user's trust
   store binds the object key to a real-world name ("Certified as:");
3. the integrity certificate's signature verifies under the object key;
4. each retrieved element passes consistency (name match), authenticity
   (hash match) and freshness (validity interval) against the cert.

A seventh, reproduction-added check — ``check_revocation`` — consults
the revocation feed (see :mod:`repro.revocation`): a genuine, fresh,
consistent response is still rejected when the issuing key or element
certificate has been revoked, or when the client's feed view is too
stale to prove it has not been (fail closed).

An eighth check — ``check_frontier`` — verifies a *multi-writer* served
state (see :mod:`repro.versioning`): every delta signature under a
writer key the owner granted and has not revoked, the hash-linked DAG
complete down to its roots, the served frontier no older than what this
client has already verified (branch withholding), and the deterministic
merge reproducible locally. What it returns is computed from verified
deltas only — no server-supplied merge result is ever trusted. A delta
is proven once: the check folds what is new into the state it verified
before and re-judges, every time, only what time or the feed can change.

``SecurityChecker`` is transport-agnostic and holds no per-object state
(the frontier check advances the :class:`VerifiedFrontier` its caller
passes in, and nothing else); all verification work runs inside its
clock's ``compute()`` region, so a simulated host pays for it (see
:meth:`SimHost.compute`) and any other clock charges nothing.

Verification fast path: an optional
:class:`~repro.crypto.verifycache.VerificationCache` memoizes successful
RSA verifications (certificate and identity-proof signatures). Because
the cache replays verdicts instead of re-running RSA, and a region is
charged for the operations it counted, a warm verification charges only
the region's bookkeeping — the amortization the paper argues for in
§4. Every check still fails closed: the cache keys on the exact payload
bytes, key and signature, so tampered input always falls through to the
real RSA operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.crypto.batch import BatchItem, verify_batch
from repro.crypto.identity import IdentityCertificate, TrustStore
from repro.crypto.keys import PublicKey
from repro.crypto.verifycache import VerificationCache
from repro.errors import (
    AuthenticityError,
    BranchWithholdingError,
    ConsistencyError,
    FreshnessError,
    RevokedWriterError,
    UnauthorizedWriterError,
    VersioningError,
)
from repro.globedoc.element import PageElement
from repro.globedoc.integrity import ElementEntry, IntegrityCertificate
from repro.globedoc.oid import ObjectId
from repro.obs import NOOP_TRACER
from repro.sim.clock import Clock
from repro.versioning.dag import DeltaDag, Frontier
from repro.versioning.delta import SignedDelta
from repro.versioning.frontier import FrontierCertificate
from repro.versioning.grant import WriterGrant
from repro.versioning.merge import (
    MergedDocument,
    Winners,
    fold_winners,
    merge_deltas,
)

__all__ = ["SecurityChecker", "VerifiedBinding", "VerifiedFrontier"]


@dataclass
class VerifiedBinding:
    """The outcome of a successful secure binding to one object."""

    oid: ObjectId
    public_key: PublicKey
    integrity: IntegrityCertificate
    certified_as: Optional[str] = None


@dataclass
class VerifiedFrontier:
    """What a reader has proven about one multi-writer object.

    Everything here was computed client-side from verified deltas: the
    merged document, the DAG it came from (the withholding baseline),
    and the frontier certificate if the server presented a valid one.
    The reader hands the whole object back to the next
    :meth:`SecurityChecker.check_frontier`, which folds only the deltas
    that are new into it — so beside the DAG it keeps the two tables
    that make a retained delta free: the merge's winner per element and
    the signer pairs that must stay authorized.
    """

    merged: MergedDocument
    dag: DeltaDag = field(default_factory=DeltaDag)
    frontier_cert: Optional[FrontierCertificate] = None
    #: The LWW register table behind ``merged`` (``name -> (order key,
    #: op)``): new deltas challenge these incumbents instead of the
    #: whole history being merged again.
    winners: Winners = field(default_factory=dict)
    #: ``(writer_id, writer key DER) -> one admitted delta id`` for
    #: every signer pair in ``dag``. A delta's signature is proven once,
    #: but its writer's authority is not a fact about the delta: grants
    #: lapse and writers are revoked, so each pair is re-judged on every
    #: read (the id is for the error message).
    signers: Dict[Tuple[str, bytes], str] = field(default_factory=dict)

    @classmethod
    def empty(cls, oid: ObjectId) -> "VerifiedFrontier":
        """Nothing proven yet: what a first read folds into."""
        return cls(merged=merge_deltas([], oid_hex=oid.hex))


class SecurityChecker:
    """Stateless verification primitives used by the secure session.

    *clock* judges freshness and is charged for the checks' work.
    ``verification_cache`` (optional, off by default) enables the
    signature-verification fast path for the certificate and identity
    checks; pass one shared instance per proxy/user to amortize RSA
    costs across repeated accesses.
    """

    def __init__(
        self,
        clock: Clock,
        trust_store: Optional[TrustStore] = None,
        verification_cache: Optional[VerificationCache] = None,
        revocation_checker=None,
        tracer=None,
        metrics=None,
    ) -> None:
        self.clock = clock
        self.trust_store = trust_store if trust_store is not None else TrustStore()
        self.verification_cache = verification_cache
        #: Optional :class:`~repro.revocation.checker.RevocationChecker`;
        #: without one, ``check_revocation`` is a no-op (the paper's
        #: original six-check pipeline).
        self.revocation_checker = revocation_checker
        #: Emits one ``check.*`` span per security check; the span that
        #: closes with error status names the check that rejected the
        #: response — the trace profile's rejection census keys on it.
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        # ``metrics`` is accepted but unused: ``perf/`` still passes it
        # (ROADMAP 1(a)/8(a) remove it); per-check verdicts are spans.

    def _cache_counts(self) -> Optional[tuple]:
        """The verification cache's (hits, misses) before a check.

        None without a cache — and with tracing off, where no span
        would carry the per-check delta and the lookup is pure cost.
        """
        if self.verification_cache is None or self.tracer is NOOP_TRACER:
            return None
        return self.verification_cache.stats.snapshot()

    def _span_cache_attrs(self, span, before: Optional[tuple]) -> None:
        """Attach the VerificationCache outcome of one check to its span."""
        if before is None:
            span.set_attribute("cache", "off")
            return
        after = self._cache_counts()
        hits = after[0] - before[0]
        misses = after[1] - before[1]
        span.set_attribute("verify_hits", hits)
        span.set_attribute("verify_misses", misses)
        span.set_attribute(
            "cache", "hit" if hits and not misses else ("miss" if misses else "idle")
        )

    # ------------------------------------------------------------------
    # Individual checks (each is one ``check.*`` span)
    # ------------------------------------------------------------------

    def check_public_key(self, oid: ObjectId, key: PublicKey) -> PublicKey:
        """Step 5 of Fig. 3: SHA-1(key) must equal the OID."""
        with self.tracer.span("check.public_key", oid=oid.hex[:16]):
            with self.clock.compute():
                return oid.check_key(key)

    def check_revocation(
        self,
        oid: ObjectId,
        element_name: Optional[str] = None,
        cert_version: Optional[int] = None,
    ) -> None:
        """The seventh check: nothing about the OID may be revoked.

        Raises :class:`~repro.errors.RevocationError` subclasses — a
        revoked key/element, or a feed view staler than the configured
        window (fail closed). Runs at establish time (key scope, before
        paying for certificate verification), before serving any
        content-cache hit, and after each element fetch with the
        certificate version in hand.
        """
        if self.revocation_checker is None:
            return
        with self.tracer.span(
            "check.revocation", oid=oid.hex[:16], element=element_name or ""
        ) as span:
            with self.clock.compute():
                self.revocation_checker.check(
                    oid, element_name=element_name, cert_version=cert_version
                )
            staleness = self.revocation_checker.staleness
            if staleness is not None:
                span.set_attribute("feed_staleness", round(staleness, 3))

    def check_frontier(
        self,
        oid: ObjectId,
        object_key: PublicKey,
        grants: List[WriterGrant],
        deltas: List[SignedDelta],
        served_heads: Frontier,
        bound: Optional[VerifiedFrontier] = None,
        frontier_cert: Optional[FrontierCertificate] = None,
    ) -> VerifiedFrontier:
        """The eighth check: a multi-writer served state proves itself.

        *bound* is what this reader verified before (``None``: nothing);
        *deltas* are the ones the server shipped this time and
        *served_heads* the frontier it claims to serve. On success
        *bound* itself is advanced by the new deltas and returned — one
        object, always consistent; on any raise it is exactly as it was.

        In order, failing closed at the first violation:

        * each served grant is verified under the object key (which the
          caller already checked hashes to the OID); a grant that fails
          — lapsed ``not_after``, malformed body, wrong signer — simply
          grants nothing and is skipped, which is strictly fail-safe:
          authority only ever shrinks, and one dead grant in the bundle
          cannot condemn other writers' deltas. A writer may hold
          several verified grants (re-key history); any one of them
          covering a delta's embedded key authorizes that delta;
        * every signer of a retained delta is still covered by a grant
          verified in *this* bundle and not revoked — a writer with no
          verified covering grant is
          :class:`~repro.errors.UnauthorizedWriterError`, a writer the
          owner revoked through the feed
          :class:`~repro.errors.RevokedWriterError`. Revocation is
          retroactive: the writer's pre-revocation deltas condemn the
          served state too (see
          :meth:`~repro.revocation.statement.RevocationStatement.revoke_writer`);
        * the deltas not yet bound close the hash-linked DAG over the
          bound one (every parent present), and each verifies under its
          writer key, likewise covered and unrevoked — forged bytes are
          :class:`~repro.errors.DeltaForgeryError`, a genuine delta for
          another object :class:`~repro.errors.DeltaReplayError`;
        * the server still carries every head this client verified
          before: *served_heads* (the wire bundle's claim, NOT anything
          derived from local state, or a rolled-back server hides behind
          the client's own retained copy) must equal the frontier of
          *bound* plus the new deltas — else
          :class:`~repro.errors.BranchWithholdingError`. It holds exactly
          when every bound head is ancestor-or-equal of a served head and
          the shipped set reaches no further: O(frontier width);
        * the new deltas are folded into the merge locally,
          deterministically; when the server presents a frontier
          certificate, its signer must hold a grant (or be the owner)
          and its claim must match the local merge of exactly the heads
          it names.

        What runs on every read is what time or the feed can change:
        grants, signer cover, revocation, withholding, the certificate.
        What runs once per delta is what cannot: signature, OID binding,
        structure, ops root, DAG admission, its fold into the merge — a
        read with no news returns the bound document as it stands.

        The server's own merge result, if any, is never used. The
        returned state — ``merged`` included — is the reader's retained
        proof, not a copy: callers read it, they do not mutate it.
        """
        with self.tracer.span(
            "check.frontier",
            oid=oid.hex[:16],
            deltas=len(deltas),
            retained=len(bound.dag) if bound is not None else 0,
        ) as span:
            with self.clock.compute():
                result = self._check_frontier(
                    oid, object_key, grants, deltas,
                    served_heads, bound, frontier_cert,
                )
            span.set_attribute("heads", len(result.merged.frontier.heads))
            span.set_attribute("lamport", result.merged.lamport)
            return result

    def _check_frontier(
        self,
        oid: ObjectId,
        object_key: PublicKey,
        grants: List[WriterGrant],
        deltas: List[SignedDelta],
        served_heads: Frontier,
        bound: Optional[VerifiedFrontier],
        frontier_cert: Optional[FrontierCertificate],
    ) -> VerifiedFrontier:
        cache = self.verification_cache
        state = bound if bound is not None else VerifiedFrontier.empty(oid)
        #: (writer_id, writer key DER) of every grant that verified: a
        #: writer may hold several live grants after an owner re-key,
        #: and each key's deltas stay verifiable under its own grant.
        granted: Set[Tuple[str, bytes]] = set()
        for grant in grants:
            try:
                grant.verify(object_key, oid, clock=self.clock, cache=cache)
            except UnauthorizedWriterError:
                # A grant that no longer verifies grants nothing —
                # skipping it confers no authority (fail-safe), and only
                # deltas that depended on it will fail below, instead of
                # one lapsed grant condemning the whole read.
                continue
            granted.add((grant.writer_id, grant.writer_key.der))
        revoked = (
            self.revocation_checker.revoked_writers(oid)
            if self.revocation_checker is not None
            else set()
        )

        def judge_signer(signer: Tuple[str, bytes], delta_id: str) -> None:
            if signer not in granted:
                raise UnauthorizedWriterError(
                    f"delta {delta_id[:12]}… is signed by writer "
                    f"{signer[0]!r} without a verified grant from "
                    "the owner covering its key"
                )
            if signer[0] in revoked:
                raise RevokedWriterError(
                    f"delta {delta_id[:12]}… is signed by writer "
                    f"{signer[0]!r}, whose grant the owner revoked"
                )

        for signer, delta_id in state.signers.items():
            judge_signer(signer, delta_id)
        try:
            # A re-served delta is dropped here, not verified again: the
            # id is the digest of the signed payload, so an id in the
            # bound DAG names bytes already proven, and a delta has no
            # validity window that could since have closed.
            order = state.dag.admission_order(deltas)
        except VersioningError as exc:
            # An unclosed DAG *is* withholding: the server shipped
            # children while hiding their ancestry.
            raise BranchWithholdingError(
                f"served delta set does not close: {exc}"
            ) from exc
        signers = dict(state.signers)
        for delta in order:
            delta.verify(oid, cache=cache)
            signer = (delta.writer_id, delta.writer_key.der)
            judge_signer(signer, delta.delta_id)
            signers.setdefault(signer, delta.delta_id)
        # The bound DAG is not touched until nothing can fail, so it is
        # asked for the frontier it *will* have.
        frontier = state.dag.frontier_after(order)
        if served_heads != frontier:
            raise BranchWithholdingError(
                f"served heads {served_heads} are not the frontier {frontier} "
                "of the verified state plus the shipped deltas — a branch is "
                "being withheld"
            )
        winners, merged = state.winners, state.merged
        if order:
            winners = fold_winners(dict(winners), order)
            merged = MergedDocument.from_winners(
                oid.hex,
                winners,
                frontier=frontier,
                lamport=max(merged.lamport, *(d.lamport for d in order)),
                delta_count=merged.delta_count + len(order),
            )
        if frontier_cert is not None:
            frontier_cert.verify(oid, cache=cache)
            signer_key = frontier_cert.signer_key.der
            if signer_key != object_key.der:
                signer_writer = next(
                    (
                        writer_id
                        for writer_id, key_der in granted
                        if key_der == signer_key
                    ),
                    None,
                )
                if signer_writer is None:
                    raise UnauthorizedWriterError(
                        "frontier certificate is signed by a key the owner "
                        "never granted"
                    )
                if signer_writer in revoked:
                    raise RevokedWriterError(
                        f"frontier certificate signer {signer_writer!r} "
                        "has been revoked by the owner"
                    )
            cert_heads = frontier_cert.frontier.heads
            new = {delta.delta_id: delta for delta in order}
            missing = [h for h in cert_heads if h not in state.dag and h not in new]
            if missing:
                raise BranchWithholdingError(
                    f"frontier certificate names head {missing[0][:12]}… "
                    "but the server did not serve that branch"
                )
            if cert_heads == merged.frontier.heads:
                digest = merged.digest
            else:
                # A stale but genuine prefix of the served DAG after
                # gossip: re-merge exactly the ancestry the heads name.
                below: Dict[str, SignedDelta] = {}
                stack = list(cert_heads)
                while stack:
                    delta_id = stack.pop()
                    if delta_id not in below:
                        delta = (
                            new[delta_id] if delta_id in new
                            else state.dag.get(delta_id)
                        )
                        below[delta_id] = delta
                        stack.extend(delta.parents)
                digest = merge_deltas(below.values(), oid_hex=oid.hex).digest
            if digest != frontier_cert.state_digest:
                raise BranchWithholdingError(
                    "frontier certificate digest does not match the merge "
                    "of the heads it names — the served DAG and the "
                    "certified state diverge"
                )
        # Every check passed: only now is the bound state advanced.
        for delta in order:
            state.dag.add(delta)
        state.merged, state.winners, state.signers = merged, winners, signers
        state.frontier_cert = frontier_cert
        return state

    def check_identity(
        self,
        key: PublicKey,
        certificates: List[IdentityCertificate],
        require: bool = False,
    ) -> Optional[str]:
        """Step 7 of Fig. 3: find an identity proof from a trusted CA.

        Returns the certified name or None. With ``require=True`` a
        missing proof raises (strict mode for e-commerce-grade use,
        §3.1.2); default is advisory, matching the paper's UI flow.
        """
        with self.tracer.span(
            "check.identity", proofs=len(certificates), require=require
        ) as span:
            before = self._cache_counts()
            with self.clock.compute():
                match = self.trust_store.first_match(
                    certificates,
                    clock=self.clock,
                    expected_subject_key=key,
                    cache=self.verification_cache,
                )
            self._span_cache_attrs(span, before)
            if match is not None:
                span.set_attribute("certified_as", match.subject_name)
                return match.subject_name
            if require:
                raise AuthenticityError(
                    "no identity certificate from a trusted CA was presented"
                )
            return None

    def check_certificate(
        self,
        key: PublicKey,
        integrity: IntegrityCertificate,
        oid: ObjectId,
    ) -> IntegrityCertificate:
        """Step 9 of Fig. 3: certificate signed by the object key, and
        issued for this OID (prevents cross-object certificate replay)."""
        with self.tracer.span("check.certificate", oid=oid.hex[:16]) as span:
            before = self._cache_counts()
            with self.clock.compute():
                integrity.verify_signature(
                    key, cache=self.verification_cache, clock=self.clock
                )
                if integrity.oid_hex != oid.hex:
                    raise AuthenticityError(
                        "integrity certificate was issued for a different object"
                    )
            self._span_cache_attrs(span, before)
            return integrity

    def prewarm_certificates(self, pairs) -> int:
        """Batch-verify (key, integrity certificate) pairs into the cache.

        The pipeline scheduler calls this with every certificate a wave
        prefetched: :func:`~repro.crypto.batch.verify_batch` runs one RSA
        operation per distinct certificate and records the successes in
        the shared verification cache, so the per-object
        :meth:`check_certificate` that follows is a cache hit. Failures
        are *dropped here on purpose* — the sequential check re-runs the
        real RSA and raises the exact error in its proper context.
        Returns the number of signatures that verified.

        No-op without a verification cache (nowhere to amortize into).
        """
        pairs = list(pairs)
        if self.verification_cache is None or not pairs:
            return 0
        with self.tracer.span("pipeline.batch_verify", items=len(pairs)) as span:
            with self.clock.compute():
                verdicts = verify_batch(
                    [
                        BatchItem(
                            key=key,
                            envelope=integrity.certificate.envelope,
                            expires_at=integrity.certificate.not_after,
                        )
                        for key, integrity in pairs
                    ],
                    cache=self.verification_cache,
                    now=self.clock.now(),
                )
            verified = sum(1 for verdict in verdicts if verdict is None)
            span.set_attribute("verified", verified)
            span.set_attribute("failed", len(verdicts) - verified)
            return verified

    def check_element(
        self,
        integrity: IntegrityCertificate,
        requested_name: str,
        element: PageElement,
    ) -> ElementEntry:
        """Steps 11–13 of Fig. 3: hash, freshness, consistency.

        One span each separates the (size-proportional) hash from the
        (constant) freshness/consistency comparisons, matching the
        paper's observation that hashing dominates large transfers.
        """
        # Consistency: the right name, and part of the object.
        with self.tracer.span("check.consistency", element=requested_name):
            if element.name != requested_name:
                raise ConsistencyError(
                    f"server returned {element.name!r} "
                    f"for request {requested_name!r}"
                )
            entry = integrity.entry_for(requested_name)
        # Authenticity: content hash (the expensive, size-proportional part).
        with self.tracer.span(
            "check.element_hash", element=requested_name, size=element.size
        ):
            with self.clock.compute():
                if element.content_hash() != entry.content_hash:
                    raise AuthenticityError(
                        f"content hash mismatch for element {requested_name!r}"
                    )
        # Freshness: validity interval against retrieval time.
        with self.tracer.span("check.freshness", element=requested_name):
            now = self.clock.now()
            if now > entry.expires_at:
                raise FreshnessError(
                    f"element {requested_name!r} expired at {entry.expires_at} "
                    f"(retrieved at {now})"
                )
        return entry
