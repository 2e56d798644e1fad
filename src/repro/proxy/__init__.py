"""The GlobeDoc client proxy (§2.1, §3.3, Fig. 3).

Installed next to the user's browser, the proxy intercepts hybrid URLs,
binds to GlobeDoc objects (name resolution → location lookup → local
representative installation) and runs the full security pipeline on
everything it retrieves: public-key/OID check, optional CA identity
proof, integrity-certificate signature, element hash, freshness and
consistency. Regular HTTP URLs pass through untouched.
"""

from repro.proxy.metrics import AccessMetrics, SECURITY_PHASES
from repro.proxy.checks import SecurityChecker, VerifiedBinding
from repro.proxy.binding import Binder, BoundObject
from repro.proxy.session import SecureSession, FetchResult
from repro.proxy.clientproxy import GlobeDocProxy, ProxyResponse
from repro.proxy.contentcache import ContentCache, CachedElement

__all__ = [
    "AccessMetrics",
    "SECURITY_PHASES",
    "SecurityChecker",
    "VerifiedBinding",
    "Binder",
    "BoundObject",
    "SecureSession",
    "FetchResult",
    "GlobeDocProxy",
    "ProxyResponse",
    "ContentCache",
    "CachedElement",
]
