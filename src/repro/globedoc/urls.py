"""Hybrid URLs (§2.1).

Standard browsers don't understand GlobeDoc names, so GlobeDoc embeds
object and element names in regular-looking URLs with a distinguishing
prefix. We support both forms the paper implies:

* name form — ``globe://vu.nl/research/report/index.html`` where the
  host+leading path is the human-readable object name resolved via the
  naming service, and the remainder names the element;
* OID form — ``globe://oid/<40-hex>/index.html`` which skips name
  resolution entirely (useful once an absolute link carries the OID).

``HybridUrl.parse`` also recognises ``http://``/``https://`` URLs and
reports them as passthrough, matching the proxy's transparent handling
of regular HTTP requests (§4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional
from urllib.parse import urlsplit, urlunsplit

from repro.errors import EncodingError, UrlError
from repro.globedoc.element import validate_element_name
from repro.globedoc.oid import ObjectId

__all__ = ["HybridUrl", "GLOBE_PREFIX", "OID_MARKER"]

#: The distinguishing scheme prefix for GlobeDoc hybrid URLs.
GLOBE_PREFIX = "globe"

#: Host marker for the OID form of a hybrid URL.
OID_MARKER = "oid"


def _element_name(name: str, url: str) -> str:
    """The element name *url* spells as *name*, validated: a refused
    name makes the whole URL malformed."""
    try:
        return validate_element_name(name)
    except EncodingError as exc:
        raise UrlError(f"invalid element name in hybrid URL {url!r}: {exc}") from exc


@dataclass(frozen=True)
class HybridUrl:
    """A parsed hybrid URL.

    Exactly one of ``object_name`` / ``oid`` is set for GlobeDoc URLs;
    both are ``None`` for passthrough HTTP URLs (``is_globedoc`` False).
    """

    raw: str
    element_name: str
    object_name: Optional[str] = None
    oid: Optional[ObjectId] = None

    @property
    def is_globedoc(self) -> bool:
        return self.object_name is not None or self.oid is not None

    @classmethod
    def parse(cls, url: str) -> "HybridUrl":
        """Parse *url*; raises :class:`~repro.errors.UrlError` if malformed."""
        if not isinstance(url, str) or not url:
            raise UrlError("URL must be a non-empty string")
        parts = urlsplit(url)
        scheme = parts.scheme.lower()
        if scheme in ("http", "https"):
            return cls(raw=url, element_name="", object_name=None, oid=None)
        if scheme != GLOBE_PREFIX:
            raise UrlError(f"unsupported URL scheme {parts.scheme!r} in {url!r}")
        host = parts.netloc
        path = parts.path.lstrip("/")
        if not host:
            raise UrlError(f"hybrid URL missing object name/OID: {url!r}")
        if host.lower() == OID_MARKER:
            segments = path.split("/", 1)
            if len(segments) != 2 or not segments[0] or not segments[1]:
                raise UrlError(
                    f"OID-form hybrid URL must be globe://oid/<hex>/<element>: {url!r}"
                )
            try:
                oid = ObjectId.from_hex(segments[0])
            except Exception as exc:
                raise UrlError(f"invalid OID in hybrid URL {url!r}: {exc}") from exc
            element = _element_name(segments[1], url)
            return cls(raw=url, element_name=element, object_name=None, oid=oid)
        # Name form: host plus all-but-last path segments form the object
        # name; the last segment(s) after the final object boundary name
        # the element. We use the convention that the element name is the
        # path portion after the host-rooted object path, delimited by a
        # '!' separator when the object name itself has path segments,
        # else the whole path is the element name.
        if "!" in path:
            object_path, _, element = path.partition("!")
            object_name = host + ("/" + object_path.strip("/") if object_path else "")
            element = element.lstrip("/")
        else:
            object_name = host
            element = path
        if not element:
            element = "index.html"
        element = _element_name(element, url)
        return cls(raw=url, element_name=element, object_name=object_name, oid=None)

    @classmethod
    def for_name(cls, object_name: str, element_name: str = "index.html") -> "HybridUrl":
        """Construct the name form programmatically."""
        if not object_name:
            raise UrlError("object name must be non-empty")
        element_name = validate_element_name(element_name)
        if "/" in object_name:
            host, _, rest = object_name.partition("/")
            raw = urlunsplit((GLOBE_PREFIX, host, f"/{rest}!/{element_name}", "", ""))
        else:
            raw = urlunsplit((GLOBE_PREFIX, object_name, f"/{element_name}", "", ""))
        return cls(raw=raw, element_name=element_name, object_name=object_name, oid=None)

    @classmethod
    def for_oid(cls, oid: ObjectId, element_name: str = "index.html") -> "HybridUrl":
        """Construct the OID form programmatically."""
        element_name = validate_element_name(element_name)
        raw = urlunsplit((GLOBE_PREFIX, OID_MARKER, f"/{oid.hex}/{element_name}", "", ""))
        return cls(raw=raw, element_name=element_name, object_name=None, oid=oid)

    def sibling(self, element_name: str) -> "HybridUrl":
        """URL for another element of the same object (relative link)."""
        if self.oid is not None:
            return HybridUrl.for_oid(self.oid, element_name)
        if self.object_name is not None:
            return HybridUrl.for_name(self.object_name, element_name)
        raise UrlError("cannot take sibling of a passthrough URL")

    def __str__(self) -> str:
        return self.raw
