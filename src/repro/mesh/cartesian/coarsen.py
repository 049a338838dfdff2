"""Single-pass SFC mesh coarsening (paper section V, figure 11).

"Tracing along the SFC, cells that collapse into the same coarse cell
('siblings') are collected whenever they are all the same size, and the
corresponding coarse cell is inserted into a new mesh structure.  This
process builds the coarse mesh cell-by-cell.  An additional benefit of
this single-pass construction algorithm is that the coarse mesh is
automatically generated with its cells already ordered along the SFC."

Because the SFC is hierarchical, the (up to) ``2**dim`` leaves of a
parent are always *consecutive* on the curve, so detecting complete
sibling families is a run-length scan over packed parent keys — exactly
one pass.  Incomplete families (or families whose coarsening would break
2:1 grading against an already-finer neighbor) survive unchanged.

Every step is whole-array: the grading filter builds the ``2*dim`` face
neighbors of every cell of every candidate family at once and looks up
their same-level and parent keys with one ``searchsorted`` into the
sorted leaf keys; the coarse mesh is one row selection (the first cell
of each collapsing family, every cell of the others) with a per-row
level shift, and ``parent_of`` is the running count of selected rows.

The paper reports coarsening ratios "in excess of 7" on typical 3-D
examples; tests verify we match that on adapted meshes.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .octree import CartesianMesh, _pack


def sfc_coarsen(mesh: CartesianMesh) -> tuple[CartesianMesh, np.ndarray]:
    """One multigrid coarsening of an SFC-ordered mesh.

    Returns ``(coarse_mesh, parent_of)`` where ``parent_of[f]`` is the
    coarse-cell index of fine cell ``f``.  The input must be SFC-ordered
    (``mesh.reorder(mesh.sfc_order())``); the output is too.
    """
    n = mesh.ncells
    if n == 0:
        return mesh, np.empty(0, dtype=np.int64)
    level, ijk = mesh.level, mesh.ijk
    family = 1 << mesh.dim

    parent_key = _pack(np.maximum(level - 1, 0), ijk >> 1)
    parent_key = np.where(level > 0, parent_key, -1 - np.arange(n))  # roots unique

    # run-length scan over consecutive equal parent keys
    starts = np.flatnonzero(np.diff(parent_key, prepend=parent_key[0] - 1))
    lengths = np.diff(starts, append=n)

    collapse = (lengths == family) & (level[starts] > 0)
    if collapse.any():
        collapse = _filter_grading(mesh, starts, collapse)

    # a coarse cell per surviving fine cell and per collapsing family
    collapsed = np.repeat(collapse, lengths)
    new = ~collapsed
    new[starts[collapse]] = True
    parent_of = np.cumsum(new, dtype=np.int64) - 1
    shift = collapsed[new].astype(np.int64)
    coarse = replace(
        mesh,
        level=level[new] - shift,
        ijk=ijk[new] >> shift[:, None],
    )
    return coarse, parent_of


def _filter_grading(mesh, starts, collapse):
    """Reject collapses that would leave a >2:1 face-neighbor jump.

    A family at level L collapses to L-1.  In a 2:1-graded fine mesh its
    face neighbors are at level L-1, L or L+1; only L+1 neighbors can
    break grading afterwards (they end at least two levels finer than the
    new L-1 cell unless they collapse too, which we do not assume).  A
    fine neighbor being at L+1 is detectable as: no leaf at the
    same-level position and no leaf at its parent position — the region
    beyond the face must then be finer.
    """
    dim = mesh.dim
    fam = np.flatnonzero(collapse)
    cells = starts[fam][:, None] + np.arange(1 << dim)  # (F, 2**dim)
    steps = np.concatenate([-np.eye(dim, dtype=np.int64),
                            np.eye(dim, dtype=np.int64)])  # (2*dim, dim)
    nbr = (mesh.ijk[cells][:, :, None, :] + steps).reshape(-1, dim)
    lvl = np.repeat(mesh.level[starts[fam]], len(steps) << dim)

    inside = ((nbr >= 0) & (nbr < (np.int64(1) << lvl)[:, None])).all(axis=1)
    leaves = np.sort(_pack(mesh.level, mesh.ijk))
    keys = np.concatenate([_pack(lvl, nbr), _pack(lvl - 1, nbr >> 1)])
    pos = np.minimum(np.searchsorted(leaves, keys), len(leaves) - 1)
    same, up = (leaves[pos] == keys).reshape(2, -1)
    finer = inside & ~same & ~up

    keep = collapse.copy()
    keep[fam[finer.reshape(len(fam), -1).any(axis=1)]] = False
    return keep


def coarsening_ratio(fine: CartesianMesh, coarse: CartesianMesh) -> float:
    """Fine/coarse cell-count ratio (paper: 'in excess of 7' in 3-D)."""
    if coarse.ncells == 0:
        raise ValueError("empty coarse mesh")
    return fine.ncells / coarse.ncells
