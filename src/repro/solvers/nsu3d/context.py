"""Per-level solver context for the NSU3D-style RANS solver.

A :class:`FlowContext` packages everything the residual, Jacobian and
smoother routines need about one grid level: the edge/dual geometry (or
its agglomerated coarse equivalent), wall distances, boundary vertex
groups by condition kind, the laminar viscosity, and (on the fine level)
the implicit-line structures.

The same context type serves the fine grid (built from a
:class:`~repro.mesh.unstructured.dual.DualMesh`) and agglomerated coarse
levels (built by :mod:`repro.solvers.nsu3d.agglomerate`), which is what
lets one residual implementation run on every level of the multigrid
hierarchy.

A context's geometry never changes after construction, so everything
the edge loop derives from it alone — dual-face areas, edge lengths, the
MUSCL mid-point offsets, the incident-edge count, each vertex's net
face-vector sum, the implicit lines batched by length with their line ->
edge lookup, the boundary groups with their split normals, and the
scatter operators of the edge list and of those groups — is computed
once, on first use, and kept on the context
(``functools.cached_property``: no registry, released with the context,
pickled with it if already built).  The stacked context a distributed
level runs on, and its interior and ghost sub-contexts, are
``FlowContext`` objects too and get the same caching (the rank-local
ones they are concatenated from then never build theirs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ...kernels import ScatterOperator, incidence
from ...mesh.unstructured.dual import DualMesh
from ..fluxes import FaceNormals, split_normals
from .gradients import GradientSurface


class BoundaryGroup(NamedTuple):
    """One boundary condition's vertices with their split normals and
    scatter operator."""

    vert: np.ndarray
    normal: np.ndarray  # (B, 3) aggregated outward area normals
    normals: FaceNormals
    scatter: ScatterOperator


class LineStructure(NamedTuple):
    """The implicit lines of a level as the line solver reads them:
    lines of equal length batched ("sets of 64 lines of similar
    length"), every along-line link resolved to its edge, and the
    vertices no line covers."""

    batches: tuple  # one (L, m) vertex-index array per line length
    edge: np.ndarray  # edge id of each link, batch after batch, (L, m-1) each
    forward: np.ndarray  # the link runs edges[:, 0] -> edges[:, 1]
    rest: np.ndarray  # off-line vertices (point-implicit)

    def per_batch(self, links: np.ndarray) -> list:
        """Per-link rows (:attr:`edge` order) as one ``(L, m-1, ...)``
        array per batch."""
        sizes = [b.shape[0] * (b.shape[1] - 1) for b in self.batches]
        return [
            rows.reshape(b.shape[0], b.shape[1] - 1, *links.shape[1:])
            for b, rows in zip(
                self.batches, np.split(links, np.cumsum(sizes)[:-1])
            )
        ]


@dataclass
class FlowContext:
    """Geometry and physics of one solver level."""

    points: np.ndarray  # (N, 3) vertex/agglomerate centroids
    edges: np.ndarray  # (E, 2)
    face_vectors: np.ndarray  # (E, 3), oriented edges[:,0] -> edges[:,1]
    volumes: np.ndarray  # (N,)
    dist: np.ndarray  # (N,) wall distance
    mu_lam: float
    # boundary vertex groups (aggregated outward normals)
    wall_vert: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    wall_normal: np.ndarray = field(default_factory=lambda: np.empty((0, 3), dtype=np.float64))
    far_vert: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    far_normal: np.ndarray = field(default_factory=lambda: np.empty((0, 3), dtype=np.float64))
    sym_vert: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    sym_normal: np.ndarray = field(default_factory=lambda: np.empty((0, 3), dtype=np.float64))
    lines: list = field(default_factory=list)
    # fine level keeps its dual (or a rank-local GradientSurface closure)
    # for Green-Gauss gradients
    dual: DualMesh | GradientSurface | None = None

    @property
    def npoints(self) -> int:
        return len(self.volumes)

    @property
    def nedges(self) -> int:
        return len(self.edges)

    # -- per-level invariants, computed on first use -----------------------

    @cached_property
    def edge_normals(self) -> FaceNormals:
        """:attr:`face_vectors` split for the edge fluxes."""
        return split_normals(self.face_vectors)

    @property
    def edge_area(self) -> np.ndarray:
        """Dual-face areas ``|S|``."""
        return self.edge_normals.area

    @cached_property
    def edge_lengths(self) -> np.ndarray:
        d = self.points[self.edges[:, 1]] - self.points[self.edges[:, 0]]
        return np.maximum(np.linalg.norm(d, axis=1), 1e-300)

    @cached_property
    def muscl_offsets(self) -> tuple[np.ndarray, np.ndarray]:
        """End point -> edge mid-point vectors ``(dl, dr)``."""
        pa = self.points[self.edges[:, 0]]
        pb = self.points[self.edges[:, 1]]
        mid = 0.5 * (pa + pb)
        return mid - pa, mid - pb

    @cached_property
    def edge_scatter(self) -> ScatterOperator:
        """Signed edge -> vertex incidence: ``+f`` at ``edges[:, 0]``,
        ``-f`` at ``edges[:, 1]`` in one product."""
        return incidence(
            self.npoints, (self.edges[:, 0], 1.0), (self.edges[:, 1], -1.0)
        )

    @cached_property
    def edge_scatter_unsigned(self) -> ScatterOperator:
        """:attr:`edge_scatter` with ``+1`` at both ends (index
        structures shared): one per-edge value added at either end."""
        return self.edge_scatter.reweighted(1.0, 1.0)

    @cached_property
    def half_face_sum(self) -> np.ndarray:
        """``1/2 sum(+-S_e)`` per vertex, ``(N, 3)``: half the net
        outward face vector of its incident dual faces — what the
        convective part of the implicit diagonal multiplies ``A(q)``
        by.  The dual is closed, so it is minus half the boundary
        normal (zero at interior vertices); on a rank-local context it
        is that rank's partial sum."""
        total = np.zeros((self.npoints, 3), dtype=np.float64)
        self.edge_scatter.add_to(total, self.face_vectors)
        return 0.5 * total

    @cached_property
    def line_structure(self) -> LineStructure:
        groups: dict = {}
        for line in self.lines:
            groups.setdefault(len(line), []).append(line)
        batches = tuple(np.array(g, dtype=np.int64) for g in groups.values())
        n = self.npoints
        if not batches:
            none = np.empty(0, dtype=np.int64)
            return LineStructure((), none, none.astype(bool), np.arange(n))
        va = np.concatenate([b[:, :-1].ravel() for b in batches])
        vb = np.concatenate([b[:, 1:].ravel() for b in batches])
        on_line = np.zeros(n, dtype=bool)
        on_line[va] = on_line[vb] = True
        # vertex pair -> edge id through the sorted (low, high) keys
        key = self.edges[:, 0] * n + self.edges[:, 1]
        order = np.argsort(key)
        links = np.minimum(va, vb) * n + np.maximum(va, vb)
        edge = order[np.searchsorted(key[order], links) % len(key)]
        if (key[edge] != links).any():
            raise ValueError("line contains a non-edge vertex pair")
        return LineStructure(
            batches, edge, self.edges[edge, 0] == va,
            np.flatnonzero(~on_line),
        )

    @cached_property
    def edge_degree(self) -> np.ndarray:
        """Incident-edge count per vertex."""
        degree = np.zeros(self.npoints, dtype=np.float64)
        self.edge_scatter_unsigned.add_to(degree, 1.0)
        return degree

    def _boundary(self, *groups: tuple[np.ndarray, np.ndarray]) -> BoundaryGroup:
        """The ``(vertices, normals)`` lists joined in the order given —
        which is the order their contributions are added at a vertex
        that sits in more than one of them."""
        vert = np.concatenate([v for v, _ in groups])
        normal = np.concatenate([n for _, n in groups])
        return BoundaryGroup(
            vert, normal, split_normals(normal),
            incidence(self.npoints, (vert, 1.0)),
        )

    @cached_property
    def far(self) -> BoundaryGroup:
        return self._boundary((self.far_vert, self.far_normal))

    @cached_property
    def slip(self) -> BoundaryGroup:
        """Symmetry planes then walls: both see the pressure-only flux."""
        return self._boundary(
            (self.sym_vert, self.sym_normal),
            (self.wall_vert, self.wall_normal),
        )

    @cached_property
    def boundary(self) -> BoundaryGroup:
        """Every boundary face — far field, symmetry, wall — for terms
        that treat them alike (boundary spectral radii)."""
        return self._boundary(
            (self.far_vert, self.far_normal),
            (self.sym_vert, self.sym_normal),
            (self.wall_vert, self.wall_normal),
        )

    @cached_property
    def gradient_scatters(self) -> tuple[ScatterOperator, ScatterOperator]:
        """(dual-face, boundary-face) operators of :attr:`dual` for
        Green-Gauss; a context's dual integrates over the context's own
        edge list, so the first is :attr:`edge_scatter`."""
        return self.edge_scatter, incidence(
            self.npoints, (self.dual.bvert, 1.0)
        )

    def restriction(
        self, cluster: np.ndarray, ncoarse: int
    ) -> ScatterOperator:
        """Vertex -> agglomerate scatter along ``cluster``, this level's
        map to the next coarser one (a level has one, so one slot)."""
        cached = getattr(self, "_restriction", None)
        if cached is None or cached[0] is not cluster:
            cached = (cluster, incidence(ncoarse, (cluster, 1.0)))
            self._restriction = cached
        return cached[1]


def context_from_dual(
    dual: DualMesh,
    mu_lam: float,
    lines: list | None = None,
    dist: np.ndarray | None = None,
) -> FlowContext:
    """Fine-level context from a median-dual mesh."""
    groups: dict = {"wall": [], "farfield": [], "symmetry": []}
    for kind in groups:
        patch_ids = [
            i for i, k in enumerate(dual.patch_kinds) if k == kind
        ]
        sel = np.isin(dual.bpatch, patch_ids)
        groups[kind] = (dual.bvert[sel], dual.bnormal[sel])

    if dist is None:
        from .distance import wall_distance

        dist = wall_distance(dual)

    return FlowContext(
        points=dual.points,
        edges=dual.edges,
        face_vectors=dual.face_vectors,
        volumes=dual.volumes,
        dist=dist,
        mu_lam=mu_lam,
        wall_vert=groups["wall"][0],
        wall_normal=groups["wall"][1],
        far_vert=groups["farfield"][0],
        far_normal=groups["farfield"][1],
        sym_vert=groups["symmetry"][0],
        sym_normal=groups["symmetry"][1],
        lines=list(lines) if lines else [],
        dual=dual,
    )
