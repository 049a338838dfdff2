"""Element-type definitions for hybrid unstructured meshes.

NSU3D meshes mix element types (paper section III): high-aspect-ratio
**prisms** in boundary layers and wakes, isotropic **tetrahedra** in the
outer field, **pyramids** in transition regions, and **hexahedra** (our
structured-generator output).  Each type is described by its canonical
vertex ordering, faces (as vertex-index tuples, outward-oriented for the
canonical right-handed element) and edges.

Canonical orderings (CGNS-like):

* TET  (4): 0-1-2 base (outward -z), 3 apex.
* PYR  (5): 0-1-2-3 quad base, 4 apex.
* PRISM(6): triangles 0-1-2 (bottom) and 3-4-5 (top), i -> i+3 vertical.
* HEX  (8): quad 0-1-2-3 (bottom), 4-5-6-7 (top), i -> i+4 vertical.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ElementType:
    """Topology of one element family."""

    name: str
    nvert: int
    faces: tuple  # tuples of local vertex ids, outward-oriented
    edges: tuple  # pairs of local vertex ids

    @property
    def nedges(self) -> int:
        return len(self.edges)


TET = ElementType(
    name="tet",
    nvert=4,
    faces=(
        (0, 2, 1),
        (0, 1, 3),
        (1, 2, 3),
        (0, 3, 2),
    ),
    edges=((0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)),
)

PYRAMID = ElementType(
    name="pyramid",
    nvert=5,
    faces=(
        (0, 3, 2, 1),
        (0, 1, 4),
        (1, 2, 4),
        (2, 3, 4),
        (3, 0, 4),
    ),
    edges=((0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4), (2, 4), (3, 4)),
)

PRISM = ElementType(
    name="prism",
    nvert=6,
    faces=(
        (0, 2, 1),
        (3, 4, 5),
        (0, 1, 4, 3),
        (1, 2, 5, 4),
        (2, 0, 3, 5),
    ),
    edges=(
        (0, 1), (1, 2), (2, 0),
        (3, 4), (4, 5), (5, 3),
        (0, 3), (1, 4), (2, 5),
    ),
)

HEX = ElementType(
    name="hex",
    nvert=8,
    faces=(
        (0, 3, 2, 1),
        (4, 5, 6, 7),
        (0, 1, 5, 4),
        (1, 2, 6, 5),
        (2, 3, 7, 6),
        (3, 0, 4, 7),
    ),
    edges=(
        (0, 1), (1, 2), (2, 3), (3, 0),
        (4, 5), (5, 6), (6, 7), (7, 4),
        (0, 4), (1, 5), (2, 6), (3, 7),
    ),
)

ELEMENT_TYPES = {t.name: t for t in (TET, PYRAMID, PRISM, HEX)}
