"""Adaptively refined Cartesian meshes (linear quadtree/octree).

Cart3D's meshes are hierarchies of Cartesian cells produced by recursive
subdivision of a root box, with 2:1 level grading between face neighbors
and the leaves ordered along a space-filling curve.  This module stores
the *leaves* flat (a "linear octree"): each cell is ``(level, ijk)`` with
integer coordinates at its own level.  Everything — refinement, 2:1
balancing, SFC ordering, face extraction — is vectorized over cells.

Face extraction produces the unique interior faces (including the
coarse/fine "hanging" faces of the 2:1 grading, emitted by the finer
cell) plus the domain-boundary faces; the Euler solver consumes these
directly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .sfc import sfc_key

MAX_LEVEL = 15


def _pack(level: np.ndarray, ijk: np.ndarray) -> np.ndarray:
    """Pack (level, coords) into one int64 key for hashing/lookup."""
    level = np.asarray(level, dtype=np.int64)
    ijk = np.asarray(ijk, dtype=np.int64)
    key = level.copy()
    for a in range(ijk.shape[1]):
        key = (key << 16) | ijk[:, a]
    if ijk.shape[1] == 2:
        key = key << 16  # align 2-D and 3-D layouts
    return key


@dataclass(frozen=True)
class FaceSet:
    """Interior and boundary faces of a Cartesian mesh.

    Interior faces: ``left``/``right`` are cell indices, the implied
    normal points from left to right along ``+axis``; ``area`` is the
    (finer side's) geometric face area.  Boundary faces carry the owning
    cell, axis, outward sign and area.
    """

    left: np.ndarray
    right: np.ndarray
    axis: np.ndarray
    area: np.ndarray
    bcell: np.ndarray
    baxis: np.ndarray
    bsign: np.ndarray
    barea: np.ndarray

    @property
    def ninterior(self) -> int:
        return len(self.left)

    @property
    def nboundary(self) -> int:
        return len(self.bcell)


@dataclass(frozen=True)
class CartesianMesh:
    """Flat array-of-leaves adaptive Cartesian mesh.

    ``level[c]`` is the refinement depth of cell ``c`` (0 = root box is
    one cell); ``ijk[c]`` its integer coordinates at that depth, each in
    ``[0, 2**level[c])``.
    """

    dim: int
    lo: np.ndarray
    hi: np.ndarray
    level: np.ndarray
    ijk: np.ndarray

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def uniform(
        dim: int, level: int, lo=None, hi=None
    ) -> "CartesianMesh":
        """A uniform mesh of ``2**level`` cells per axis."""
        if dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        if not 0 <= level <= MAX_LEVEL:
            raise ValueError(f"level must be in [0, {MAX_LEVEL}]")
        lo = np.zeros(dim) if lo is None else np.asarray(lo, dtype=float)
        hi = np.ones(dim) if hi is None else np.asarray(hi, dtype=float)
        if lo.shape != (dim,) or hi.shape != (dim,) or (hi <= lo).any():
            raise ValueError("bad domain bounds")
        n = 1 << level
        axes = [np.arange(n, dtype=np.int64)] * dim
        grids = np.meshgrid(*axes, indexing="ij")
        ijk = np.column_stack([g.ravel() for g in grids])
        return CartesianMesh(
            dim=dim,
            lo=lo,
            hi=hi,
            level=np.full(len(ijk), level, dtype=np.int64),
            ijk=ijk,
        )

    # -- geometry ---------------------------------------------------------------

    @property
    def ncells(self) -> int:
        return len(self.level)

    @property
    def max_level(self) -> int:
        return int(self.level.max(initial=0))

    def cell_size(self) -> np.ndarray:
        """(N, dim) physical edge lengths."""
        extent = self.hi - self.lo
        return extent[None, :] / (1 << self.level)[:, None]

    def centers(self) -> np.ndarray:
        h = self.cell_size()
        return self.lo[None, :] + (self.ijk + 0.5) * h

    def volumes(self) -> np.ndarray:
        return np.prod(self.cell_size(), axis=1)

    def face_area(self, axis: int) -> np.ndarray:
        """(N,) area of each cell's face normal to ``axis``."""
        h = self.cell_size()
        others = [a for a in range(self.dim) if a != axis]
        return np.prod(h[:, others], axis=1)

    # -- SFC ordering -------------------------------------------------------------

    def anchor_coords(self, at_level: int | None = None) -> np.ndarray:
        """Min-corner coordinates expressed at a common (finest) level."""
        if at_level is None:
            at_level = self.max_level
        if (self.level > at_level).any():
            raise ValueError("at_level coarser than some cells")
        shift = (at_level - self.level).astype(np.int64)
        return self.ijk << shift[:, None]

    def sfc_keys(self, curve: str = "hilbert") -> np.ndarray:
        """Key of every cell on the curve; hierarchical, so sorting leaves
        by anchor key reproduces the depth-first octree traversal."""
        bits = max(self.max_level, 1)
        return sfc_key(self.anchor_coords(bits), bits, curve)

    def sfc_order(self, curve: str = "hilbert") -> np.ndarray:
        return np.argsort(self.sfc_keys(curve), kind="stable")

    def reorder(self, perm: np.ndarray) -> "CartesianMesh":
        return replace(self, level=self.level[perm], ijk=self.ijk[perm])

    # -- refinement ----------------------------------------------------------------

    def refine(self, mark: np.ndarray) -> "CartesianMesh":
        """Replace marked cells by their ``2**dim`` children."""
        mark = np.asarray(mark, dtype=bool)
        if len(mark) != self.ncells:
            raise ValueError("mark must have one entry per cell")
        if (self.level[mark] >= MAX_LEVEL).any():
            raise ValueError("refinement beyond MAX_LEVEL")
        keep_level = self.level[~mark]
        keep_ijk = self.ijk[~mark]
        parents_ijk = self.ijk[mark]
        parents_level = self.level[mark]
        offsets = np.array(
            np.meshgrid(*([np.arange(2)] * self.dim), indexing="ij")
        ).reshape(self.dim, -1).T  # (2**dim, dim)
        child_ijk = (parents_ijk[:, None, :] * 2 + offsets[None, :, :]).reshape(
            -1, self.dim
        )
        child_level = np.repeat(parents_level + 1, 1 << self.dim)
        return replace(
            self,
            level=np.concatenate([keep_level, child_level]),
            ijk=np.vstack([keep_ijk, child_ijk]),
        )

    def balance_2to1(self) -> "CartesianMesh":
        """Refine until no face neighbors differ by more than one level."""
        mesh = self
        for _ in range(MAX_LEVEL + 1):
            mark = mesh._grading_violations()
            if not mark.any():
                return mesh
            mesh = mesh.refine(mark)
        raise RuntimeError("2:1 balancing did not converge")

    def _grading_violations(self) -> np.ndarray:
        """Cells with a face neighbor two or more levels finer."""
        # ancestor set: every (level, coords) that is an internal node
        ancestors = set()
        level = self.level
        ijk = self.ijk
        for lvl in range(1, self.max_level + 1):
            sel = level == lvl
            if not sel.any():
                continue
            anc_ijk = ijk[sel]
            anc_lvl = np.full(sel.sum(), lvl, dtype=np.int64)
            for up in range(1, lvl + 1):
                ancestors.update(
                    _pack(anc_lvl - up, anc_ijk >> up).tolist()
                )
        mark = np.zeros(self.ncells, dtype=bool)
        if not ancestors:
            return mark
        n_at = (np.int64(1) << level)
        for axis in range(self.dim):
            for sign in (-1, 1):
                nbr = ijk.copy()
                nbr[:, axis] += sign
                inside = (nbr[:, axis] >= 0) & (nbr[:, axis] < n_at)
                # children of the neighbor touching the shared face, one
                # level down: the face-adjacent child has fixed bit along
                # `axis`; check whether any such child is itself internal
                child_axis_bit = 0 if sign > 0 else 1
                fixed = nbr * 2
                fixed[:, axis] += child_axis_bit
                other_axes = [a for a in range(self.dim) if a != axis]
                for combo in range(1 << (self.dim - 1)):
                    child = fixed.copy()
                    for bit_pos, a in enumerate(other_axes):
                        child[:, a] += (combo >> bit_pos) & 1
                    keys = _pack(level + 1, child)
                    hits = inside & np.isin(
                        keys, np.fromiter(ancestors, dtype=np.int64)
                    )
                    mark |= hits
        return mark

    # -- connectivity -----------------------------------------------------------------

    def build_faces(self) -> FaceSet:
        """Extract unique interior faces and domain-boundary faces.

        Requires 2:1 grading (call :meth:`balance_2to1` first); raises if
        a hanging face cannot be matched.
        """
        packed = _pack(self.level, self.ijk)
        order = np.argsort(packed)
        sorted_keys = packed[order]
        if len(sorted_keys) > 1 and (np.diff(sorted_keys) == 0).any():
            raise ValueError("duplicate cells in mesh")

        def lookup(keys: np.ndarray) -> np.ndarray:
            """Cell index for each key, -1 where absent (vectorized)."""
            pos = np.searchsorted(sorted_keys, keys)
            pos_c = np.minimum(pos, len(sorted_keys) - 1)
            found = sorted_keys[pos_c] == keys
            return np.where(found, order[pos_c], -1)

        level, ijk = self.level, self.ijk
        n_at = np.int64(1) << level
        cells = np.arange(self.ncells)

        il, ir, ia, aa = [], [], [], []
        bc, bx, bs, ba = [], [], [], []

        for axis in range(self.dim):
            areas = self.face_area(axis)
            for sign in (-1, 1):
                nbr = ijk.copy()
                nbr[:, axis] += sign
                outside = (nbr[:, axis] < 0) | (nbr[:, axis] >= n_at)
                bc.append(cells[outside])
                bx.append(np.full(outside.sum(), axis, dtype=np.int64))
                bs.append(np.full(outside.sum(), sign, dtype=np.int64))
                ba.append(areas[outside])

                inside = ~outside
                same = lookup(_pack(level, nbr))
                same[outside] = -1
                if sign > 0:  # emit same-level faces once
                    hit = same >= 0
                    il.append(cells[hit])
                    ir.append(same[hit])
                    ia.append(np.full(hit.sum(), axis, dtype=np.int64))
                    aa.append(areas[hit])

                coarse = lookup(_pack(level - 1, nbr >> 1))
                hang = inside & (same < 0) & (coarse >= 0) & (level > 0)
                # hanging face: the finer cell emits it, area is the fine's
                if sign > 0:
                    il.append(cells[hang])
                    ir.append(coarse[hang])
                else:
                    il.append(coarse[hang])
                    ir.append(cells[hang])
                ia.append(np.full(hang.sum(), axis, dtype=np.int64))
                aa.append(areas[hang])
                # remaining inside cells face a finer region whose cells
                # emit the faces themselves

        return FaceSet(
            left=np.concatenate(il),
            right=np.concatenate(ir),
            axis=np.concatenate(ia),
            area=np.concatenate(aa),
            bcell=np.concatenate(bc),
            baxis=np.concatenate(bx),
            bsign=np.concatenate(bs),
            barea=np.concatenate(ba),
        )
