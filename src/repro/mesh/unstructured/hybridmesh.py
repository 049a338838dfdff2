"""Hybrid unstructured mesh container.

Stores points plus one connectivity array per element family (tet,
pyramid, prism, hex) and named boundary patches (lists of boundary faces
given as element-face references).  The solver itself never sees
elements — it runs on the edge-based median-dual metrics produced by
:mod:`repro.mesh.unstructured.dual` — so this container's job is
bookkeeping and validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .elements import ELEMENT_TYPES, ElementType


@dataclass
class BoundaryPatch:
    """A named set of boundary faces.

    Each face is stored as the global vertex ids of the face polygon
    (rows padded with -1 for mixed tri/quad patches), oriented outward
    from the domain.
    """

    name: str
    kind: str  # "wall" | "farfield" | "symmetry"
    faces: np.ndarray  # (F, 4) vertex ids, -1 padding for triangles

    def __post_init__(self):
        if self.kind not in ("wall", "farfield", "symmetry"):
            raise ValueError(f"unknown patch kind {self.kind!r}")
        self.faces = np.asarray(self.faces, dtype=np.int64)
        if self.faces.ndim != 2 or self.faces.shape[1] != 4:
            raise ValueError("patch faces must be (F, 4) with -1 padding")


@dataclass
class HybridMesh:
    """Points + per-family element connectivity + boundary patches."""

    points: np.ndarray
    elements: dict = field(default_factory=dict)  # name -> (E, nvert) array
    patches: list = field(default_factory=list)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError("points must be (N, 3)")
        for name, conn in self.elements.items():
            etype = self.element_type(name)
            conn = np.asarray(conn, dtype=np.int64)
            if conn.ndim != 2 or conn.shape[1] != etype.nvert:
                raise ValueError(
                    f"{name} connectivity must be (E, {etype.nvert})"
                )
            if conn.size and (conn.min() < 0 or conn.max() >= len(self.points)):
                raise ValueError(f"{name} connectivity references bad points")
            self.elements[name] = conn

    @staticmethod
    def element_type(name: str) -> ElementType:
        try:
            return ELEMENT_TYPES[name]
        except KeyError:
            raise ValueError(
                f"unknown element family {name!r}; "
                f"expected one of {sorted(ELEMENT_TYPES)}"
            ) from None

    @property
    def npoints(self) -> int:
        return len(self.points)

    def element_counts(self) -> dict:
        return {name: len(conn) for name, conn in self.elements.items() if len(conn)}

    def all_edges(self) -> np.ndarray:
        """Unique undirected mesh edges over all element families."""
        chunks = []
        for name, conn in self.elements.items():
            etype = self.element_type(name)
            for a, b in etype.edges:
                chunks.append(np.column_stack([conn[:, a], conn[:, b]]))
        if not chunks:
            return np.empty((0, 2), dtype=np.int64)
        edges = np.vstack(chunks)
        edges = np.sort(edges, axis=1)
        return np.unique(edges, axis=0)

    def validate(self) -> None:
        """Structural sanity: no degenerate elements, patches reference
        valid points."""
        for name, conn in self.elements.items():
            for row in range(len(conn)):
                if len(set(conn[row].tolist())) != conn.shape[1]:
                    raise ValueError(f"degenerate {name} element {row}")
        for p in self.patches:
            used = p.faces[p.faces >= 0]
            if used.size and used.max() >= self.npoints:
                raise ValueError(f"patch {p.name} references bad points")
