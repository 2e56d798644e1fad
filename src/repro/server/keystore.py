"""The object-server keystore (§4).

"The server administrator sets up a Java keystore listing the public
keys for all entities allowed to create GlobeDoc replicas on the server;
such entities can be either GlobeDoc owners (individuals) or other
GlobeDoc object servers (in this way we can support dynamic replication
algorithms)."

Entities are identified by their public key; names are administrative
labels only.

Revocation hooks: removing a key is not just forgetting it — whatever
the entity placed on the server must stop serving too. ``subscribe``
lets the hosting server (and the admin interface) react to every
*effective* revocation; callbacks fire only when a key was actually
removed, keeping :meth:`revoke` idempotent.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.crypto.keys import PublicKey
from repro.errors import AccessDenied

__all__ = ["Keystore"]

#: A revocation observer: ``(label, key)`` of the entity just removed.
RevokeCallback = Callable[[str, PublicKey], None]

#: An authorization observer: ``(label, key)`` of the entity just added.
AuthorizeCallback = Callable[[str, PublicKey], None]


class Keystore:
    """Administrator-maintained registry of authorised public keys."""

    def __init__(self) -> None:
        self._by_key: Dict[bytes, str] = {}
        self._revoke_callbacks: List[RevokeCallback] = []
        self._authorize_callbacks: List[AuthorizeCallback] = []

    def authorize(self, label: str, key: PublicKey) -> None:
        """Authorise *key* under administrative *label*."""
        self._by_key[key.der] = label
        for callback in list(self._authorize_callbacks):
            callback(label, key)

    def subscribe(self, callback: RevokeCallback) -> None:
        """Register an observer fired on every effective revocation."""
        self._revoke_callbacks.append(callback)

    def subscribe_authorize(self, callback: AuthorizeCallback) -> None:
        """Register an observer fired on every authorization (the durable
        backend journals keystore mutations through this hook)."""
        self._authorize_callbacks.append(callback)

    def revoke(self, key: PublicKey) -> bool:
        """Remove *key*; True if it was present (idempotent: a second
        revoke is a no-op and fires no callbacks).

        Callbacks are fired over a snapshot of the subscriber list: a
        callback that subscribes or unsubscribes mid-notification must
        not perturb this iteration (list mutation during iteration
        skips or repeats entries).
        """
        label = self._by_key.pop(key.der, None)
        if label is None:
            return False
        for callback in list(self._revoke_callbacks):
            callback(label, key)
        return True

    def unsubscribe(self, callback: RevokeCallback) -> None:
        """Remove a revocation observer (no-op if absent)."""
        try:
            self._revoke_callbacks.remove(callback)
        except ValueError:
            pass

    def entries(self) -> List[tuple]:
        """``(label, key_der)`` pairs, deterministic order (persistence)."""
        return sorted(
            ((label, der) for der, label in self._by_key.items()),
            key=lambda pair: (pair[0], pair[1]),
        )

    def is_authorized(self, key: PublicKey) -> bool:
        return key.der in self._by_key

    def label_of(self, key: PublicKey) -> str:
        """The label of an authorised key; AccessDenied if unknown."""
        label = self._by_key.get(key.der)
        if label is None:
            raise AccessDenied("key is not in the server keystore")
        return label

    def require(self, key: PublicKey) -> str:
        """Assert authorisation; returns the label."""
        return self.label_of(key)

    @property
    def labels(self) -> List[str]:
        return sorted(self._by_key.values())

    def __len__(self) -> int:
        return len(self._by_key)
