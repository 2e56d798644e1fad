"""Durable persistence: one checksummed journal per component, crash recovery.

The storage layer gives every stateful service a crash-consistent
backend with one invariant throughout: **recovered bytes are untrusted
until their signatures check**, exactly like fetched bytes. The store
validates framing and checksums (torn-write protection); the owning
subsystem re-verifies self-certification and signatures on load and
fails closed on anything that does not prove out.
"""

from repro.storage.store import DurableStore
from repro.storage.wal import WriteAheadLog

__all__ = ["DurableStore", "WriteAheadLog"]
