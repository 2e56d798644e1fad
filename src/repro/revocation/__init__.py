"""Revocation & key lifecycle: the compromise-to-containment loop.

The paper bounds key-compromise damage by certificate expiry (§3.2);
this subsystem closes the loop actively:

* :mod:`repro.revocation.statement` — signed, self-certifying
  :class:`RevocationStatement`s (whole-key or per-element scope);
* :mod:`repro.revocation.feed` — the replicated, serial-monotone
  :class:`RevocationFeed` object servers host and the replication
  coordinator distributes;
* :mod:`repro.revocation.checker` — the proxy-side
  :class:`RevocationChecker` behind the seventh security check
  (``check.revocation``), with a fail-closed max-staleness window and
  first-sight cache purges.

A compromised key is a new object (§3.1: the OID is the key's hash):
the owner revokes the old key and publishes under a fresh one, and
name-form URLs follow the re-registered name.

See DESIGN.md §4e and ``python -m repro.harness revocation`` for the
containment-latency / feed-overhead measurements.
"""

from repro.revocation.checker import RevocationChecker, RevocationCheckerStats
from repro.revocation.feed import RevocationFeed
from repro.revocation.statement import (
    REVOCATION_CERT_TYPE,
    SCOPE_ELEMENT,
    SCOPE_KEY,
    RevocationStatement,
)

__all__ = [
    "RevocationStatement",
    "REVOCATION_CERT_TYPE",
    "SCOPE_KEY",
    "SCOPE_ELEMENT",
    "RevocationFeed",
    "RevocationChecker",
    "RevocationCheckerStats",
]
