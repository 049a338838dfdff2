"""Wall-distance computation for the turbulence model.

The Spalart-Allmaras model's destruction term scales with the inverse
square of the distance to the nearest no-slip wall.  Distances are
computed from the dual mesh's wall-patch vertices with a KD-tree — exact
for our meshes, whose wall spacing (not wall curvature) controls the
near-wall values the model is sensitive to.
"""

from __future__ import annotations

import numpy as np

from ...mesh.unstructured.dual import DualMesh


def wall_distance(dual: DualMesh, floor: float = 1e-12) -> np.ndarray:
    """Distance of every vertex to the nearest wall vertex.

    Wall vertices themselves get ``floor`` (the SA destruction term
    divides by d^2; wall values of the working variable are pinned to
    zero anyway).
    """
    # deferred: scipy.spatial pulls in scipy.linalg and scipy.special,
    # ~16 MB resident that only a turbulent NSU3D set-up needs
    from scipy.spatial import cKDTree

    wall = dual.wall_vertices()
    if len(wall) == 0:
        raise ValueError("mesh has no wall patch — cannot compute distance")
    tree = cKDTree(dual.points[wall])
    d, _ = tree.query(dual.points, k=1)
    return np.maximum(d, floor)
