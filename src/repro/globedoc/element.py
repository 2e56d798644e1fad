"""Page elements: the units of a GlobeDoc's state.

A page element is "anything that is accessible over the Web" (§2): HTML
source, text, images, audio, video, applets. Elements are named within
their document; names are path-like strings (``"index.html"``,
``"img/logo.png"``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from repro.crypto import hashes
from repro.errors import EncodingError
from repro.util.encoding import wire_bytes

__all__ = ["PageElement", "validate_element_name", "guess_content_type"]

_CONTENT_TYPES = {
    ".html": "text/html",
    ".htm": "text/html",
    ".txt": "text/plain",
    ".css": "text/css",
    ".js": "application/javascript",
    ".png": "image/png",
    ".jpg": "image/jpeg",
    ".jpeg": "image/jpeg",
    ".gif": "image/gif",
    ".mp3": "audio/mpeg",
    ".mp4": "video/mp4",
    ".class": "application/java-vm",
    ".jar": "application/java-archive",
}

_MAX_NAME_LENGTH = 1024


def validate_element_name(name: str) -> str:
    """Validate and normalise an element name.

    Names are non-empty relative paths without ``.``/``..`` segments,
    backslashes, or control characters — the consistency check (§3.2.2)
    compares names byte-for-byte, so ambiguous spellings are rejected at
    creation time. A refused name is an :class:`EncodingError`, so a
    decoder of an untrusted answer (``PageElement.from_dict``) refuses it
    as the malformed value it is.
    """
    if not isinstance(name, str) or not name:
        raise EncodingError("element name must be a non-empty string")
    if len(name) > _MAX_NAME_LENGTH:
        raise EncodingError(f"element name longer than {_MAX_NAME_LENGTH} chars")
    if name.startswith("/") or "\\" in name:
        raise EncodingError(f"element name must be a relative path: {name!r}")
    if any(ord(ch) < 0x20 for ch in name):
        raise EncodingError("element name contains control characters")
    parts = name.split("/")
    if any(part in ("", ".", "..") for part in parts):
        raise EncodingError(f"element name contains empty or dot segments: {name!r}")
    return name


def guess_content_type(name: str) -> str:
    """MIME type from the element name's extension (default octet-stream)."""
    lowered = name.lower()
    for ext, ctype in _CONTENT_TYPES.items():
        if lowered.endswith(ext):
            return ctype
    return "application/octet-stream"


@dataclass(frozen=True)
class PageElement:
    """An immutable named blob of Web content.

    Immutability matters: the integrity certificate pins the hash of
    these exact bytes, so updates create a *new* element (and a new
    certificate) rather than mutating in place.
    """

    name: str
    content: bytes
    content_type: str = ""
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        validate_element_name(self.name)
        object.__setattr__(self, "content", bytes(self.content))
        if not self.content_type:
            object.__setattr__(self, "content_type", guess_content_type(self.name))

    @property
    def size(self) -> int:
        """Content length in bytes."""
        return len(self.content)

    def content_hash(self) -> bytes:
        """Digest of the element content (the integrity-certificate hash).

        Computed once per instance: the content is frozen, so owner
        signing and repeated client checks of the same element instance
        share one digest pass.
        """
        digest = self.__dict__.get("_content_hash")
        if digest is None:
            digest = hashes.digest(self.content)
            object.__setattr__(self, "_content_hash", digest)
        return digest

    def with_content(self, content: bytes, content_type: Optional[str] = None) -> "PageElement":
        """A new element with the same name and different content."""
        return PageElement(
            name=self.name,
            content=content,
            content_type=content_type if content_type is not None else self.content_type,
            metadata=dict(self.metadata),
        )

    def to_dict(self) -> dict:
        """Wire representation."""
        return {
            "name": self.name,
            "content": self.content,
            "content_type": self.content_type,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PageElement":
        return cls(
            name=str(data["name"]),
            content=wire_bytes(data["content"]),
            content_type=str(data.get("content_type", "")),
            metadata=dict(data.get("metadata", {})),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PageElement(name={self.name!r}, {self.size}B, {self.content_type})"
