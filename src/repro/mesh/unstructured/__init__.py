"""Unstructured hybrid meshes with boundary-layer stretching (the NSU3D
side of the paper): element families, the median-dual metric builder,
synthetic wing/bump generators, implicit-line extraction, and
cache/vector reordering."""

from .dual import DualMesh, build_dual
from .elements import ELEMENT_TYPES, HEX, PRISM, PYRAMID, TET, ElementType
from .generate import (
    bump_channel,
    geometric_distribution,
    to_prism_tet,
    wing_mesh,
    with_pyramid_band,
)
from .hybridmesh import BoundaryPatch, HybridMesh
from .lines import (
    edge_coupling,
    extract_lines,
    group_lines_by_length,
    line_coverage,
)
from .reorder import (
    apply_vertex_order,
    bandwidth,
    check_coloring,
    color_edges,
    rcm_order,
)

__all__ = [
    "ElementType",
    "TET",
    "PYRAMID",
    "PRISM",
    "HEX",
    "ELEMENT_TYPES",
    "HybridMesh",
    "BoundaryPatch",
    "DualMesh",
    "build_dual",
    "bump_channel",
    "wing_mesh",
    "to_prism_tet",
    "with_pyramid_band",
    "geometric_distribution",
    "extract_lines",
    "edge_coupling",
    "line_coverage",
    "group_lines_by_length",
    "rcm_order",
    "apply_vertex_order",
    "bandwidth",
    "color_edges",
    "check_coloring",
]
