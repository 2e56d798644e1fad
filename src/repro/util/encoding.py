"""Two codecs: what is *signed* and what is *framed*.

**Signed** (:func:`canonical_bytes` / :func:`from_canonical_bytes`).
Digital signatures are computed over *bytes*, so every structure that is
ever signed (integrity certificates, identity certificates, name-service
resource records) must serialise to exactly the same byte string on every
host and every Python version. We use *canonical JSON*: UTF-8, sorted
keys, no insignificant whitespace, and ``bytes`` values wrapped in a
tagged base64 envelope so the mapping is invertible. OIDs and delta ids
are this form too.

**Framed** (:func:`to_wire` / :func:`from_wire`): the one frame codec, of
RPC messages (:mod:`repro.net.message`) and of journal records at rest
(:mod:`repro.storage.wal`). Element bytes are never signed
— only their digest is, inside the integrity certificate — so the frame
does not re-encode them::

    4-byte header length | header | attachment 0 | attachment 1 | ... | CRC32

all integers big-endian. The header is canonical JSON of the message
with every ``bytes`` value replaced, in traversal order (dict keys
sorted), by the reserved placeholder ``{"__att__": <length>}``; the
attachments follow raw, concatenated in that order; the trailer is the
CRC32 of everything before it. Equal values give equal frames, on every
transport, and what a frame decodes to frames again to the same bytes.
That is load-bearing: the frame is also the pre-image of a signed admin
command's args digest (:mod:`repro.server.admin`), which the server
recomputes over the args it decoded, so a frame that differed for equal
values would deny an honest command. The checksum is what makes link
noise a *transport* fault: a flipped content byte would otherwise decode
cleanly and surface as a failed hash check — a security rejection of an
honest replica instead of a retry.
"""

from __future__ import annotations

import base64
import json
import math
import zlib
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, List, Optional

from repro.errors import CryptoError, EncodingError
from repro.util.tally import TALLY

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
    data = canonical_json(value).encode("utf-8")
    TALLY["encoded"] += len(data)
    return data


def from_canonical_bytes(data: bytes) -> Any:
    """Parse bytes produced by :func:`canonical_bytes` back into a value.

    No product path reads this form back; it is the inverse the signing
    codec's round-trip tests hold :func:`canonical_bytes` to."""
    try:
        parsed = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise EncodingError(f"invalid canonical payload: {exc}") from exc
    return _untag(parsed)


# Placeholder for one raw attachment in a frame header; like
# ``_BYTES_TAG`` a reserved key, and both are refused in a framed mapping:
# a decoded value always frames again and always signs.
_ATTACHMENT_TAG = "__att__"
_RESERVED_KEYS = frozenset((_BYTES_TAG, _ATTACHMENT_TAG))
# How each reads as a mapping key in (compact) header text.
_ATTACHMENT_KEY_TEXT = f'"{_ATTACHMENT_TAG}":'.encode("ascii")
_BYTES_KEY_TEXT = f'"{_BYTES_TAG}":'.encode("ascii")
_WORD = 4  # bytes in the header-length prefix and in the CRC32 trailer


class _FrameCodec:
    """A JSON encoder and decoder built once, with the hook state of the
    frame in hand. ``json.dumps``/``json.loads`` given a hook build both
    — encoder, scanner — anew on every call.

    A codec is in one caller's hands at a time (:func:`_take`), which
    returns it to :data:`_IDLE` with its state cleared: no frame or
    attachment outlives the call that held it."""

    def __init__(self) -> None:
        self.attachments: List[bytes] = []
        self.frame: Optional[memoryview] = None
        self.offset = self.end = 0
        #: The encoder's cycle check: emptied after every call, since an
        #: encoder that raised mid-value leaves its entries behind.
        self.markers: dict = {}
        # What ``json.dumps(value, sort_keys=True, separators=(",", ":"),
        # allow_nan=False, default=...)`` builds per call, built once.
        chunks = c_make_encoder(
            self.markers, self.detach, encode_basestring_ascii,
            None, ":", ",", True, False, False,
        )
        self.encode = lambda value: "".join(chunks(value, 0))
        self.decode = json.JSONDecoder(object_hook=self.attach).decode

    def detach(self, leaf: Any) -> Any:
        """The encoder's ``default``: it meets each ``bytes`` in text order."""
        if isinstance(leaf, memoryview):  # len() counts items, not bytes
            leaf = leaf.tobytes()
        elif not isinstance(leaf, (bytes, bytearray)):
            raise EncodingError(f"type {type(leaf).__name__} is not encodable")
        self.attachments.append(leaf)
        return {_ATTACHMENT_TAG: len(leaf)}

    def attach(self, mapping: dict) -> Any:
        """The parser's ``object_hook``: it sees every JSON object as it
        closes, so placeholders arrive in text order."""
        if _RESERVED_KEYS.isdisjoint(mapping):
            return mapping
        length = mapping.get(_ATTACHMENT_TAG)
        if len(mapping) != 1 or type(length) is not int or length < 0:
            raise EncodingError("malformed attachment placeholder")
        if length > self.end - self.offset:
            raise EncodingError("attachment length runs past the frame")
        start = self.offset
        self.offset += length
        return bytes(self.frame[start : self.offset])

    def release(self) -> None:
        self.attachments.clear()
        self.frame = None
        self.markers.clear()
        _IDLE.append(self)


#: Codecs not in any caller's hands. ``list.pop`` and ``list.append``
#: are atomic, so the pool never holds more codecs than threads were
#: ever inside the codec at once, and a nested call just takes another.
_IDLE: List[_FrameCodec] = []


def _take() -> _FrameCodec:
    try:
        return _IDLE.pop()
    except IndexError:
        return _FrameCodec()


def to_wire(value: Any) -> bytes:
    """Frame a message for transmission (layout in the module docstring).

    ``bytes`` values are carried as-is: one copy into the frame, no
    base64, no JSON escaping. The JSON encoder itself walks the value —
    keys sorted — and hands over each ``bytes`` it meets, so attachment
    order is the header's text order whatever the insertion order."""
    codec = _take()
    try:
        try:
            header = codec.encode(value).encode("ascii")
        except (TypeError, ValueError) as exc:  # unsortable or non-JSON keys, NaN/Inf, cycles
            raise EncodingError(f"value is not encodable: {exc}") from exc
        attachments = codec.attachments
        # The encoder walks the mappings, so reserved keys are looked for in
        # its output. A quote inside a JSON string is escaped: ``"__att__":``
        # can only be text where a mapping key is (or, for a key holding a
        # quote, ends in) ``__att__``. One per placeholder is ours; any more
        # is a user key, refused — as is the rare key that merely ends so.
        if header.count(_ATTACHMENT_KEY_TEXT) != len(attachments) or _BYTES_KEY_TEXT in header:
            raise EncodingError(f"reserved key {_ATTACHMENT_TAG!r} or {_BYTES_TAG!r} in mapping")
        parts = [len(header).to_bytes(_WORD, "big"), header, *attachments]
    finally:
        codec.release()
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    parts.append(crc.to_bytes(_WORD, "big"))
    return b"".join(parts)


def from_wire(data: bytes) -> Any:
    """Decode a frame produced by :func:`to_wire`.

    Strict: the checksum must match, every placeholder must announce a
    non-negative ``int`` length that lies inside the frame (lengths only
    ever slice, never allocate), and header plus attachments must consume
    the frame exactly. Anything else is :class:`EncodingError`."""
    frame = memoryview(data)
    end = len(frame) - _WORD
    if end < _WORD:
        raise EncodingError(f"frame of {len(frame)} bytes is shorter than its fixed parts")
    if zlib.crc32(frame[:end]) != int.from_bytes(frame[end:], "big"):
        raise EncodingError("frame checksum mismatch")
    offset = _WORD + int.from_bytes(frame[:_WORD], "big")
    if offset > end:
        raise EncodingError("header length runs past the frame")
    codec = _take()
    codec.frame, codec.offset, codec.end = frame, offset, end
    try:
        try:
            value = codec.decode(str(frame[_WORD:offset], "utf-8"))
        except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, huge int, depth
            raise EncodingError(f"invalid frame header: {exc}") from exc
        if codec.offset != end:
            raise EncodingError(f"{end - codec.offset} unclaimed bytes after the last attachment")
    finally:
        codec.release()
    return value


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
