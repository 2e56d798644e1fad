"""The committed, benchmark-only RSA key pool (``perf/keys/pool.pem``).

Keys are parsed on first use and kept for the life of the invocation:
loading one RSA-2048 PEM costs ~50 ms (OpenSSL validates the key), so a
workload pays only for the identities its world needs, and a forked TCP
child inherits the parent's parsed keys instead of re-loading them.
"""

from __future__ import annotations

import os
from typing import Dict, List

from repro.crypto.keys import KeyPair

__all__ = ["KeyPool", "POOL_PATH"]

POOL_PATH = os.path.join(os.path.dirname(__file__), "keys", "pool.pem")

_BEGIN = b"-----BEGIN"


class KeyPool:
    """Index-addressed RSA-2048 key pairs; index → key never changes."""

    def __init__(self) -> None:
        with open(POOL_PATH, "rb") as handle:
            text = handle.read()
        self._pems: List[bytes] = [_BEGIN + block for block in text.split(_BEGIN)[1:]]
        self._loaded: Dict[int, KeyPair] = {}

    def preload(self, indices) -> None:
        """Parse these keys now, so no world build pays for it."""
        for index in indices:
            self.key(index)

    def key(self, index: int) -> KeyPair:
        pair = self._loaded.get(index)
        if pair is None:
            pair = KeyPair.from_pem(self._pems[index])
            self._loaded[index] = pair
        return pair
