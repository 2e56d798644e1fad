"""The exact object configurations of the paper's evaluation (§4).

Experiment 1 (Fig. 4): "four GlobeDoc objects, each consisting of one
page element (image), of sizes 1KB, 10KB, 100KB, 300KB, 600KB, and 1MB
respectively" (the text says four but lists six sizes; we reproduce all
six, matching the figure's x-axis).

Experiment 2 (Figs. 5–7): "three GlobeDoc objects, each consisting of
11 page elements. One of the page elements was always a 5KB text file.
The other 10 elements are images, of size 1KB each for the first
object, 10KB each for the second, and 100KB each for the third. Thus
the total size for the first object is 15KB, for the second 105KB, and
for the third 1005KB."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import WorkloadError
from repro.util.sizes import KB, MB, format_size

__all__ = [
    "FIG4_ELEMENT_SIZES",
    "FIG567_OBJECT_SPECS",
    "ObjectSpec",
    "fig4_objects",
    "fig567_objects",
]

#: Fig. 4 x-axis: single-element (image) object sizes in bytes.
FIG4_ELEMENT_SIZES: Tuple[int, ...] = (
    1 * KB,
    10 * KB,
    100 * KB,
    300 * KB,
    600 * KB,
    1 * MB,
)


@dataclass(frozen=True)
class ObjectSpec:
    """A document blueprint: named elements with sizes."""

    name: str
    elements: Tuple[Tuple[str, int], ...]  # (element name, size in bytes)

    @property
    def total_size(self) -> int:
        return sum(size for _, size in self.elements)

    @property
    def element_names(self) -> List[str]:
        return [name for name, _ in self.elements]

    @property
    def label(self) -> str:
        return f"{self.name} ({format_size(self.total_size)})"


def _image_name(index: int) -> str:
    return f"img/image{index:02d}.png"


def fig4_objects() -> List[ObjectSpec]:
    """The six single-element objects of Experiment 1."""
    return [
        ObjectSpec(
            name=f"vu.nl/fig4/{format_size(size)}",
            elements=(("image.png", size),),
        )
        for size in FIG4_ELEMENT_SIZES
    ]


def fig567_objects() -> List[ObjectSpec]:
    """The three 11-element objects of Experiment 2 (15KB/105KB/1005KB)."""
    specs = []
    for image_size in (1 * KB, 10 * KB, 100 * KB):
        elements: List[Tuple[str, int]] = [("story.txt", 5 * KB)]
        elements.extend((_image_name(i), image_size) for i in range(10))
        total = 5 * KB + 10 * image_size
        specs.append(
            ObjectSpec(
                name=f"vu.nl/fig567/{format_size(total)}",
                elements=tuple(elements),
            )
        )
    return specs


#: Pre-built Fig. 5–7 specs keyed by their paper label.
FIG567_OBJECT_SPECS: Dict[str, ObjectSpec] = {
    spec.label.split(" ")[0].split("/")[1]: spec for spec in fig567_objects()
}


def validate_spec(spec: ObjectSpec) -> None:
    """Sanity-check a blueprint (used by the generator)."""
    if not spec.elements:
        raise WorkloadError(f"object spec {spec.name!r} has no elements")
    names = [n for n, _ in spec.elements]
    if len(set(names)) != len(names):
        raise WorkloadError(f"object spec {spec.name!r} has duplicate element names")
    for name, size in spec.elements:
        if size < 0:
            raise WorkloadError(f"element {name!r} has negative size {size}")
