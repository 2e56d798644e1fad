"""Timing decomposition of a GlobeDoc access (§4, Fig. 4).

The paper's "timers in various parts of the proxy and server code" are
the spans every access-path phase already opens; :class:`AccessMetrics`
is a view derived from them, split by :data:`SECURITY_PHASES` into
security overhead and base cost (naming, location, element transfer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.obs.span import Span

__all__ = ["AccessMetrics", "SECURITY_PHASES", "SPAN_PHASES"]

#: The security-specific operations enumerated in §4's methodology.
SECURITY_PHASES = frozenset(
    {
        "get_public_key",
        "verify_public_key",
        "get_identity_proofs",
        "verify_identity_proofs",
        "get_integrity_certificate",
        "verify_certificate",
        "verify_element_hash",
        "check_freshness",
        "check_consistency",
    }
)

#: Span → paper phase; ``rpc.call`` spans are keyed ``rpc.call/<op>``.
SPAN_PHASES: Dict[str, str] = {
    "client_processing": "client_processing",
    "bind.resolve": "resolve_name",
    "bind.locate": "find_replica",
    # A failover binding the next replica (and, once the known addresses
    # run out, the widened location lookup that finds it).
    "bind.rebind": "rebind",
    "rpc.call/globedoc.get_public_key": "get_public_key",
    "rpc.call/globedoc.get_identity_certificates": "get_identity_proofs",
    "rpc.call/globedoc.get_integrity_certificate": "get_integrity_certificate",
    "rpc.call/globedoc.get_element": "get_page_element",
    # Key, certificate and element in one exchange (a deployable stack's
    # cold access); not a security phase, as its bytes are mostly the
    # element's.
    "rpc.call/globedoc.bind": "bind_replica",
    "rpc.call/versioning.fetch": "fetch_bundle",
    "check.public_key": "verify_public_key",
    "check.identity": "verify_identity_proofs",
    "check.certificate": "verify_certificate",
    "check.consistency": "check_consistency",
    "check.element_hash": "verify_element_hash",
    "check.freshness": "check_freshness",
    "check.revocation": "check_revocation",
    "check.frontier": "verify_frontier",
    "cache.get": "content_cache_lookup",
    "cache.put": "content_cache_store",
}


def _phase_of(span: Span) -> Optional[str]:
    op = f"/{span.attributes.get('op')}" if span.name == "rpc.call" else ""
    return SPAN_PHASES.get(span.name + op)


@dataclass(frozen=True)
class AccessMetrics:
    """The measured decomposition of one (or several) object accesses."""

    phases: Tuple[Tuple[str, float], ...]

    @classmethod
    def from_spans(cls, spans: Iterable[Span]) -> "AccessMetrics":
        """Derive the decomposition from closed spans (e.g. a sink's).

        A span listed in :data:`SPAN_PHASES` counts its whole duration,
        whatever its status, and hides everything nested below it
        (``check.revocation`` ⊃ ``revocation.refresh`` ⊃ ``rpc.call``).
        """
        by_ref = {span.ref: span for span in spans}
        phases = []
        for span in by_ref.values():
            phase, outer = _phase_of(span), by_ref.get(span.parent_ref)
            while outer is not None and _phase_of(outer) is None:
                outer = by_ref.get(outer.parent_ref)
            if phase is not None and outer is None:  # not inside a counted span
                phases.append((phase, span.duration))
        return cls(phases=tuple(phases))

    @property
    def total(self) -> float:
        return sum(t for _, t in self.phases)

    @property
    def security_time(self) -> float:
        return sum(t for name, t in self.phases if name in SECURITY_PHASES)

    @property
    def base_time(self) -> float:
        return self.total - self.security_time

    @property
    def overhead_fraction(self) -> float:
        """Security share of the total access time (Fig. 4's y-axis, 0–1)."""
        return self.security_time / self.total if self.total > 0 else 0.0

    @property
    def overhead_percent(self) -> float:
        return 100.0 * self.overhead_fraction

    def phase_time(self, name: str) -> float:
        return sum(t for n, t in self.phases if n == name)

    def by_phase(self) -> Dict[str, float]:
        return {n: self.phase_time(n) for n in dict.fromkeys(n for n, _ in self.phases)}
