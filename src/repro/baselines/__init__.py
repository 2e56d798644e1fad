"""Baselines the paper compares against (§4, §5).

* :mod:`~repro.baselines.plainhttp` — the Apache static-file server of
  Figures 5–7 (no security).
* :mod:`~repro.baselines.ssl_channel` — Apache+SSL: a TLS-style channel
  with a real RSA handshake and real symmetric record encryption,
  reproducing the paper's point that SSL's public-key **decrypt** per
  connection is far costlier than GlobeDoc's signature **verify**.
* :mod:`~repro.baselines.gemini` — the Gemini cache-signing design
  (ref [12]): untrusted caches sign what they serve, cheats are caught
  by after-the-fact auditing rather than prevented.
"""

from repro.baselines.plainhttp import StaticHttpServer, PlainHttpClient
from repro.baselines.ssl_channel import SslServer, SslClient, TlsSession
from repro.baselines.gemini import GeminiCache, GeminiClient

__all__ = [
    "StaticHttpServer",
    "PlainHttpClient",
    "SslServer",
    "SslClient",
    "TlsSession",
    "GeminiCache",
    "GeminiClient",
]
