"""Synthetic content generation.

Deterministic (seeded) element bytes, whole documents from
:class:`~repro.workloads.sizes.ObjectSpec` blueprints, and multi-page
linked websites for the publishing example and link-model tests.
Content is pseudorandom, not compressible zeros — hash timing must see
realistic bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.globedoc.element import PageElement
from repro.globedoc.owner import DocumentOwner
from repro.crypto.keys import KeyPair
from repro.sim.clock import Clock
from repro.sim.random import derive_seed, make_rng
from repro.workloads.sizes import ObjectSpec, validate_spec

__all__ = ["make_element", "make_document_owner", "make_website", "WebsiteSpec"]


def make_content(size: int, rng: Optional[np.random.Generator] = None) -> bytes:
    """*size* pseudorandom bytes (deterministic under a seeded rng)."""
    rng = make_rng(rng)
    if size == 0:
        return b""
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


def make_element(
    name: str,
    size: int,
    rng: Optional[np.random.Generator] = None,
    content_type: str = "",
) -> PageElement:
    """A page element with *size* bytes of deterministic content."""
    return PageElement(name=name, content=make_content(size, rng), content_type=content_type)


def make_document_owner(
    spec: ObjectSpec,
    seed: int = 0,
    clock: Optional[Clock] = None,
    keys: Optional[KeyPair] = None,
) -> DocumentOwner:
    """Materialise a blueprint into an owner with elements staged.

    The content depends only on ``(seed, spec.name, element name)``, so
    two runs generate byte-identical documents — which keeps simulated
    transfer sizes and hashes reproducible across benches.
    """
    validate_spec(spec)
    owner = DocumentOwner(spec.name, keys=keys, clock=clock)
    for name, size in spec.elements:
        rng = make_rng(derive_seed(seed, spec.name, name))
        owner.put_element(make_element(name, size, rng))
    return owner


@dataclass(frozen=True)
class WebsiteSpec:
    """Blueprint for a synthetic linked website.

    ``pages`` HTML documents, each linking to ``links_per_page`` other
    pages (absolute GlobeDoc links once published) and embedding
    ``images_per_page`` images (relative links to sibling elements).
    """

    site_name: str
    pages: int = 5
    links_per_page: int = 2
    images_per_page: int = 2
    image_size: int = 2048


def make_website(
    spec: WebsiteSpec,
    seed: int = 0,
    clock: Optional[Clock] = None,
) -> List[DocumentOwner]:
    """Build one GlobeDoc per page: HTML element plus its images.

    Inter-page links are left as site-relative ``/page<N>`` hrefs; the
    publishing example rewrites them to ``globe://`` hybrid URLs after
    OIDs exist (you cannot know an OID before generating its key pair).
    """
    owners: List[DocumentOwner] = []
    rng = make_rng(derive_seed(seed, spec.site_name))
    for page_index in range(spec.pages):
        doc_name = f"{spec.site_name}/page{page_index}"
        owner = DocumentOwner(doc_name, clock=clock)
        links = []
        for _ in range(spec.links_per_page):
            target = int(rng.integers(0, spec.pages))
            links.append(f'<a href="/page{target}">page {target}</a>')
        images = []
        image_elements = []
        for img_index in range(spec.images_per_page):
            img_name = f"img/pic{img_index}.png"
            images.append(f'<img src="{img_name}">')
            image_elements.append(
                make_element(
                    img_name,
                    spec.image_size,
                    make_rng(derive_seed(seed, doc_name, img_name)),
                )
            )
        html = (
            f"<html><head><title>{doc_name}</title></head><body>"
            f"<h1>Page {page_index}</h1>"
            + "".join(links)
            + "".join(images)
            + "</body></html>"
        ).encode("utf-8")
        owner.put_element(PageElement("index.html", html))
        for element in image_elements:
            owner.put_element(element)
        owners.append(owner)
    return owners
