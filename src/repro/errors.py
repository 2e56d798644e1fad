"""Exception hierarchy for the GlobeDoc reproduction.

Every error raised by this library derives from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
still distinguishing security violations (which must never be silently
swallowed) from operational failures (which a resilient client may retry
against another replica).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "EncodingError",
    "CryptoError",
    "SignatureError",
    "CertificateError",
    "SecurityError",
    "AuthenticityError",
    "FreshnessError",
    "ConsistencyError",
    "RevocationError",
    "RevokedKeyError",
    "RevokedElementError",
    "RevocationStalenessError",
    "FeedRegressionError",
    "VersioningError",
    "DeltaForgeryError",
    "UnauthorizedWriterError",
    "RevokedWriterError",
    "BranchWithholdingError",
    "DeltaReplayError",
    "StorageError",
    "RecoveryIntegrityError",
    "NamingError",
    "NameNotFound",
    "ZoneValidationError",
    "LocationError",
    "ObjectNotFound",
    "NetworkError",
    "TransportError",
    "RpcError",
    "ServerError",
    "AccessDenied",
    "ReplicaError",
    "BindingError",
    "UrlError",
    "ReplicationError",
    "WorkloadError",
]


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class EncodingError(ReproError):
    """A value could not be canonically encoded or decoded."""


class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class SignatureError(CryptoError):
    """A digital signature failed to verify."""


class CertificateError(CryptoError):
    """A certificate is malformed, expired, or untrusted."""


class SecurityError(ReproError):
    """Base class for violations of the GlobeDoc security properties.

    These indicate a *hostile* condition (tampering, replay, swap) —
    never an ordinary operational failure — and correspond to the paper's
    "Security Check Failed" page.
    """


class AuthenticityError(SecurityError):
    """Retrieved data was not created by the object owner (§3.2.1)."""


class FreshnessError(SecurityError):
    """Retrieved data is genuine but outside its validity interval (§3.2.1)."""


class ConsistencyError(SecurityError):
    """Retrieved data is genuine and fresh but not what was requested (§3.2.1)."""


class RevocationError(SecurityError):
    """Base class for revocation-subsystem security violations.

    Raised by the seventh security check (``check_revocation``): the
    data may be genuine, fresh, and consistent, yet must not be served
    because the issuing key or element certificate has been revoked —
    or because the client cannot prove it has *not* been.
    """


class RevokedKeyError(RevocationError):
    """The object's key has been revoked; nothing it signed is servable."""


class RevokedElementError(RevocationError):
    """The element's integrity-certificate row has been revoked."""


class RevocationStalenessError(RevocationError):
    """The revocation feed could not be refreshed within the configured
    max-staleness window — the proxy fails closed for the affected OID
    rather than serve content it cannot prove unrevoked."""


class FeedRegressionError(RevocationError):
    """The revocation feed's head moved *backwards* relative to this
    consumer's synced cursor — a feed that restarted empty (losing
    statements) or a malicious rollback. Either way the consumer can no
    longer prove anything unrevoked and must fail closed immediately,
    not wait out the staleness window."""


class VersioningError(SecurityError):
    """Base class for multi-writer versioning security violations.

    Raised by the eighth security check (``check_frontier``): the
    delta DAG a replica served must be made of signed deltas from
    authorized, unrevoked writers, and must extend — never hide — the
    causal frontier the client already verified.
    """


class DeltaForgeryError(VersioningError):
    """A delta's certificate does not verify under its stated writer
    key, or its content-addressed structure (ops root, parent links)
    does not match the signed body — the delta was forged or tampered."""


class UnauthorizedWriterError(VersioningError):
    """A delta was signed by a key the object owner never granted write
    authority to (no owner-signed writer grant covers it)."""


class RevokedWriterError(VersioningError):
    """The delta's writer grant was revoked through the revocation feed;
    nothing that writer signed may merge into the document anymore."""


class BranchWithholdingError(VersioningError):
    """A replica served a causal frontier that hides a branch below the
    client's known frontier — the multi-writer variant of stale replay.
    Every head the client has already verified must stay reachable."""


class DeltaReplayError(VersioningError):
    """A genuine delta was replayed into a different object's DAG (the
    signed body names another OID)."""


class StorageError(ReproError):
    """A durable-storage operation failed (unwritable log, a directory
    or log header this version cannot read, misuse of a closed store)."""


class RecoveryIntegrityError(SecurityError):
    """Recovered state failed re-verification on load.

    Bytes read back from disk are as untrusted as bytes fetched from
    the network: a CRC-valid record whose *signature* no longer checks
    means the store was tampered with at rest, and recovery must fail
    closed rather than serve it."""


class NamingError(ReproError):
    """Base class for naming-service failures."""


class NameNotFound(NamingError):
    """The naming service has no record for the requested name."""


class ZoneValidationError(NamingError):
    """A DNSsec-style zone signature chain failed to validate."""


class LocationError(ReproError):
    """Base class for location-service failures."""


class ObjectNotFound(LocationError):
    """The location service has no contact address for the OID."""


class NetworkError(ReproError):
    """Base class for transport/RPC failures."""


class TransportError(NetworkError):
    """A message could not be delivered."""


class RpcError(NetworkError):
    """The remote peer returned an error response."""


class ServerError(ReproError):
    """Base class for object-server failures."""


class AccessDenied(ServerError):
    """The caller's key is not authorised for the requested admin operation."""


class ReplicaError(ServerError):
    """A replica is missing, duplicated, or in an invalid state."""


class BindingError(ReproError):
    """The client proxy failed to bind to a GlobeDoc object."""


class UrlError(ReproError):
    """A hybrid URL could not be parsed or constructed."""


class ReplicationError(ReproError):
    """A replication policy or coordinator operation failed."""


class WorkloadError(ReproError):
    """A workload description is invalid."""
