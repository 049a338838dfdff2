"""Multigrid level construction for the Cart3D-style Euler solver.

Each level bundles the flow-cell view of one mesh in the SFC-coarsened
hierarchy (paper fig. 11): open volumes, interior faces remapped to
flow-cell indices with signed area normals, wall faces (against solid
cells), farfield faces (domain boundary), and the fine->coarse transfer
map restricted to flow cells.

Coarse-level classifications are *aggregated* from the fine level rather
than re-sampled from the geometry, so every fine flow cell has a flow
parent — the transfer operators are total functions.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property

import numpy as np

from ...kernels import ScatterOperator, get_engine, incidence
from ...mesh.cartesian import (
    CartesianMesh,
    CutCellMesh,
    adapt_to_geometry,
    aggregate_classification,
    build_cutcell_mesh,
    classify_cells,
    sfc_coarsen,
)
from ...mesh.cartesian.geometry import ImplicitSolid
from ..fluxes import FaceNormals, split_normals


class FaceOperators:
    """What a level derives from its face lists alone, computed once on
    first use: the scatter operators of the face loop and the split
    face and boundary normals.  Shared by the serial
    :class:`Cart3DLevel` and the stacked rank-local slices of the
    distributed path, which carry the same fields (``vol``, ``face_left``/
    ``face_right``/``face_normal``, ``wall_cell``/``wall_normal``,
    ``far_cell``/``far_normal``)."""

    @cached_property
    def face_scatter(self) -> ScatterOperator:
        """Signed face -> cell incidence: ``+f`` left, ``-f`` right."""
        return incidence(
            len(self.vol), (self.face_left, 1.0), (self.face_right, -1.0)
        )

    @cached_property
    def face_scatter_unsigned(self) -> ScatterOperator:
        return self.face_scatter.reweighted(1.0, 1.0)

    @cached_property
    def side_scatters(self) -> tuple[ScatterOperator, ScatterOperator]:
        """One-sided (left, right) operators, for per-face terms that
        differ between the two cells (index structures shared with
        :attr:`face_scatter`)."""
        return (
            self.face_scatter.reweighted(1.0, None),
            self.face_scatter.reweighted(None, 1.0),
        )

    @cached_property
    def face_normals(self) -> FaceNormals:
        return split_normals(self.face_normal)

    @property
    def face_area(self) -> np.ndarray:
        return self.face_normals.area

    @cached_property
    def wall_scatter(self) -> ScatterOperator:
        return incidence(len(self.vol), (self.wall_cell, 1.0))

    @cached_property
    def far_scatter(self) -> ScatterOperator:
        return incidence(len(self.vol), (self.far_cell, 1.0))

    @cached_property
    def wall_normals(self) -> FaceNormals:
        return split_normals(self.wall_normal)

    @cached_property
    def far_normals(self) -> FaceNormals:
        return split_normals(self.far_normal)


@dataclass(frozen=True)
class Cart3DLevel(FaceOperators):
    """Flow-cell-indexed geometry of one multigrid level."""

    cut: CutCellMesh
    vol: np.ndarray  # (nflow,) open volumes
    face_left: np.ndarray  # flow indices
    face_right: np.ndarray
    face_normal: np.ndarray  # (nface, 3) signed area, left -> right
    wall_cell: np.ndarray  # flow indices
    wall_normal: np.ndarray  # (nwall, 3) outward (into the body)
    far_cell: np.ndarray  # flow indices
    far_normal: np.ndarray  # (nfar, 3) outward (out of the domain)

    @property
    def nflow(self) -> int:
        return len(self.vol)


def _axis_normal(axis: np.ndarray, area: np.ndarray, sign=None) -> np.ndarray:
    out = np.zeros((len(axis), 3), dtype=np.float64)
    s = np.ones(len(axis), dtype=np.float64) if sign is None else np.asarray(sign, dtype=float)
    out[np.arange(len(axis)), axis] = s * area
    return out


def _level_from_cut(cut: CutCellMesh) -> Cart3DLevel:
    nfull = cut.mesh.ncells
    flow_of = np.full(nfull, -1, dtype=np.int64)
    flow_of[cut.flow_cells] = np.arange(cut.nflow)
    faces = cut.interior
    return Cart3DLevel(
        cut=cut,
        vol=cut.flow_volumes(),
        face_left=flow_of[faces.left],
        face_right=flow_of[faces.right],
        face_normal=_axis_normal(faces.axis, faces.area),
        wall_cell=flow_of[cut.wall_cell],
        wall_normal=_axis_normal(cut.wall_axis, cut.wall_area, cut.wall_sign),
        far_cell=flow_of[faces.bcell],
        far_normal=_axis_normal(faces.baxis, faces.barea, faces.bsign),
    )


@dataclass(frozen=True)
class TransferOp:
    """Fine-flow -> coarse-flow restriction/prolongation maps."""

    parent: np.ndarray  # (nflow_fine,) coarse flow index
    nflow_coarse: int

    @cached_property
    def scatter(self) -> ScatterOperator:
        """Sum over children, as a prebuilt operator."""
        return incidence(self.nflow_coarse, (self.parent, 1.0))

    def restrict_solution(self, q: np.ndarray, vol_f: np.ndarray,
                          vol_c: np.ndarray) -> np.ndarray:
        out = np.zeros((self.nflow_coarse, q.shape[1]), dtype=np.float64)
        get_engine().scatter_add(out, self.scatter, q * vol_f[:, None])
        return out / vol_c[:, None]

    def restrict_residual(self, r: np.ndarray) -> np.ndarray:
        out = np.zeros((self.nflow_coarse, r.shape[1]), dtype=np.float64)
        get_engine().scatter_add(out, self.scatter, r)
        return out

    def prolong(self, dq_c: np.ndarray) -> np.ndarray:
        return dq_c[self.parent]


def freeze(obj) -> None:
    """Make every array under ``obj`` read-only: shared, so write-proof."""
    if is_dataclass(obj):
        obj = [getattr(obj, f.name) for f in fields(obj)]
    if isinstance(obj, np.ndarray):
        obj.flags.writeable = False
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            freeze(item)


def build_levels(
    solid: ImplicitSolid,
    mesh: CartesianMesh | None = None,
    dim: int = 3,
    base_level: int = 3,
    max_level: int = 6,
    mg_levels: int = 4,
    nsample: int = 2,
    curve: str = "hilbert",
) -> tuple[list, list]:
    """Build the flow-level hierarchy: ([Cart3DLevel fine->coarse],
    [TransferOp between consecutive levels])."""
    if mg_levels < 1:
        raise ValueError("mg_levels must be >= 1")
    if mesh is None:
        mesh, _ = adapt_to_geometry(
            solid, dim=dim, base_level=base_level, max_level=max_level,
            curve=curve,
        )
    cls = classify_cells(mesh, solid, nsample=nsample)
    cut = build_cutcell_mesh(mesh, solid, classification=cls)
    levels = [_level_from_cut(cut)]
    transfers = []
    fine_mesh, fine_cls = mesh, cls
    for _ in range(mg_levels - 1):
        coarse_mesh, parent_of = sfc_coarsen(fine_mesh)
        if coarse_mesh.ncells >= fine_mesh.ncells:
            break
        coarse_cls = aggregate_classification(
            fine_cls, fine_mesh.volumes(), parent_of, coarse_mesh.ncells
        )
        coarse_cut = build_cutcell_mesh(
            coarse_mesh, solid, classification=coarse_cls
        )
        coarse_level = _level_from_cut(coarse_cut)

        # fine flow -> coarse flow map
        fine_cut = levels[-1].cut
        coarse_flow_of = np.full(coarse_mesh.ncells, -1, dtype=np.int64)
        coarse_flow_of[coarse_cut.flow_cells] = np.arange(coarse_cut.nflow)
        parent_flow = coarse_flow_of[parent_of[fine_cut.flow_cells]]
        if (parent_flow < 0).any():
            raise RuntimeError("fine flow cell lost its coarse parent")
        transfers.append(
            TransferOp(parent=parent_flow, nflow_coarse=coarse_cut.nflow)
        )
        levels.append(coarse_level)
        fine_mesh, fine_cls = coarse_mesh, coarse_cls
    return levels, transfers
