"""Deterministic canonical encoding for signed payloads and wire messages.

Digital signatures are computed over *bytes*, so every structure that is
ever signed (integrity certificates, identity certificates, name-service
resource records) must serialise to exactly the same byte string on every
host and every Python version. We use *canonical JSON*: UTF-8, sorted
keys, no insignificant whitespace, and ``bytes`` values wrapped in a
tagged base64 envelope so the mapping is invertible.

The same encoder doubles as the wire format of the RPC layer
(:mod:`repro.net.message`), which keeps simulated and real-TCP transports
byte-identical.
"""

from __future__ import annotations

import base64
import json
import math
from typing import Any

from repro.errors import CryptoError, EncodingError

__all__ = [
    "canonical_json",
    "canonical_bytes",
    "from_canonical_bytes",
    "b64encode",
    "b64decode",
    "to_wire",
    "from_wire",
    "wire_bytes",
    "DECODE_ERRORS",
]


# Tag used to represent raw bytes inside JSON without ambiguity. A dict
# with exactly this key is reserved; user maps containing it are rejected.
_BYTES_TAG = "__b64__"


def b64encode(data: bytes) -> str:
    """Encode *data* as standard base64 text (no line breaks)."""
    return base64.b64encode(data).decode("ascii")


def b64decode(text: str) -> bytes:
    """Decode standard base64 text produced by :func:`b64encode`."""
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except Exception as exc:  # binascii.Error, UnicodeEncodeError
        raise EncodingError(f"invalid base64 payload: {exc}") from exc


def _tag(value: Any) -> Any:
    """Recursively replace ``bytes`` with a tagged base64 envelope.

    Rejects values that cannot be encoded deterministically: non-string
    dict keys, NaN/Inf floats, sets, and arbitrary objects.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise EncodingError("NaN/Inf floats are not canonically encodable")
        return value
    if isinstance(value, (bytes, bytearray, memoryview)):
        return {_BYTES_TAG: b64encode(bytes(value))}
    if isinstance(value, (list, tuple)):
        return [_tag(v) for v in value]
    if isinstance(value, dict):
        out = {}
        for key, val in value.items():
            if not isinstance(key, str):
                raise EncodingError(f"dict keys must be str, got {type(key).__name__}")
            if key == _BYTES_TAG:
                raise EncodingError(f"reserved key {_BYTES_TAG!r} in mapping")
            out[key] = _tag(val)
        return out
    raise EncodingError(f"type {type(value).__name__} is not canonically encodable")


def _untag(value: Any) -> Any:
    """Inverse of :func:`_tag`."""
    if isinstance(value, list):
        return [_untag(v) for v in value]
    if isinstance(value, dict):
        if set(value.keys()) == {_BYTES_TAG}:
            raw = value[_BYTES_TAG]
            if not isinstance(raw, str):
                raise EncodingError("bytes envelope payload must be a string")
            return b64decode(raw)
        return {k: _untag(v) for k, v in value.items()}
    return value


def canonical_json(value: Any) -> str:
    """Serialise *value* to canonical JSON text.

    The output is deterministic: keys sorted, separators fixed, non-ASCII
    escaped. Equal values always produce equal text.
    """
    tagged = _tag(value)
    return json.dumps(tagged, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def canonical_bytes(value: Any) -> bytes:
    """Serialise *value* to the canonical UTF-8 byte string used for signing."""
    return canonical_json(value).encode("utf-8")


def from_canonical_bytes(data: bytes) -> Any:
    """Parse bytes produced by :func:`canonical_bytes` back into a value."""
    try:
        parsed = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise EncodingError(f"invalid canonical payload: {exc}") from exc
    return _untag(parsed)


def to_wire(value: Any) -> bytes:
    """Encode a message for transmission: canonical bytes (shared format)."""
    return canonical_bytes(value)


def from_wire(data: bytes) -> Any:
    """Decode a wire message produced by :func:`to_wire`."""
    return from_canonical_bytes(data)


def wire_bytes(value: Any) -> bytes:
    """A bytes-typed field of a decoded wire message, strictly: only
    ``bytes``/``bytearray`` pass. ``bytes(value)`` is not a decoder —
    handed an ``int`` from an untrusted answer it *allocates* that many
    zero bytes."""
    if isinstance(value, (bytes, bytearray)):
        return bytes(value)
    raise EncodingError(f"expected a bytes field, got {type(value).__name__}")


#: What re-hydrating an untrusted answer (``from_dict`` over a decoded
#: wire value of any shape) can raise.
DECODE_ERRORS = (
    CryptoError, EncodingError, AttributeError, KeyError, TypeError, ValueError
)
