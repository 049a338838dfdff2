"""Cut-cell Cartesian meshes (the Cart3D side of the paper).

Space-filling curves (``sfc``), linear octrees (``octree``), implicit
component geometry (``geometry``), embedded-boundary classification
(``cutcell``), geometry adaptation (``adapt``) and single-pass SFC
coarsening (``coarsen``).
"""

from .adapt import AdaptReport, adapt_to_geometry, mesh_for_configuration
from .coarsen import coarsening_ratio, sfc_coarsen
from .cutcell import (
    CUT,
    FLUID,
    SOLID,
    CellClassification,
    CutCellMesh,
    aggregate_classification,
    build_cutcell_mesh,
    classify_cells,
)
from .geometry import (
    Assembly,
    Box,
    Component,
    Cone,
    Cylinder,
    ImplicitSolid,
    Rotated,
    Sphere,
    Union,
    rotation_matrix,
    shuttle_stack,
    wing_body,
)
from .octree import MAX_LEVEL, CartesianMesh, FaceSet
from .sfc import (
    CURVES,
    hilbert_decode,
    hilbert_key,
    morton_decode,
    morton_key,
    sfc_key,
    sfc_sort,
)

__all__ = [
    "CartesianMesh",
    "FaceSet",
    "MAX_LEVEL",
    "morton_key",
    "morton_decode",
    "hilbert_key",
    "hilbert_decode",
    "sfc_key",
    "sfc_sort",
    "CURVES",
    "ImplicitSolid",
    "Sphere",
    "Box",
    "Cylinder",
    "Cone",
    "Union",
    "Rotated",
    "Component",
    "Assembly",
    "rotation_matrix",
    "wing_body",
    "shuttle_stack",
    "classify_cells",
    "aggregate_classification",
    "build_cutcell_mesh",
    "CellClassification",
    "CutCellMesh",
    "FLUID",
    "CUT",
    "SOLID",
    "adapt_to_geometry",
    "mesh_for_configuration",
    "AdaptReport",
    "sfc_coarsen",
    "coarsening_ratio",
]
