"""Cart3D physics kernels for the unified distributed runtime.

Cart3D partitions by cutting the space-filling curve into contiguous
segments ("the mesh partitioner actually operates on-the-fly as the
SFC-ordered mesh file is read"), with cut cells weighted 2.1x.  That
decomposition — and the halos, multigrid transfers and cycle loop built
on it — lives in :mod:`repro.runtime` (one stack for both solvers; lint
rule R008 keeps it that way).  This module contributes only the
Cart3D-specific pieces:

* the rank-local level payload (:class:`CartLevelPart`) built from a
  halo — the face graph of the Cartesian mesh plays the role of the
  edge graph,
* :class:`Cart3DKernels` — the dict-of-partitions residual / 5-stage
  Runge-Kutta hooks the
  :class:`~repro.runtime.driver.DistributedSolveDriver` drives; a
  residual pass stacks the faces of whatever partitions it is handed
  (every one of a lockstep world, a process worker's own) and calls
  each flux kernel once (:class:`_FaceBatch`), and
* :func:`make_parallel_cart3d`, which decomposes a serial solver:
  partition, domain hierarchy, kernels, driver.

Correctness contract (tested): per-rank results equal the serial solver
on the same level hierarchy to floating-point-reassociation tolerance —
full FAS cycles, overlap on or off.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ...kernels import get_engine, use_engine
from ...runtime import (
    DistributedSolveDriver,
    LevelSpec,
    RuntimeConfig,
    SFCPartitioner,
    build_domain_hierarchy,
)
from ...runtime.domain import level_cache
from ..fluxes import rusanov_flux, split_normals, wall_flux
from ..gas import check_physical
from .levels import Cart3DLevel, FaceOperators
from .residual import FLUX_FUNCTIONS, spectral_radius
from .rk import RK_COEFFS
from .solver import FLOPS_PER_CELL_RESIDUAL, Cart3DSolver


@dataclass
class CartLevelPart(FaceOperators):
    """Rank-local slice of a Cart3D level (geometry in local numbering,
    boundary lists owned-only)."""

    vol: np.ndarray  # (nlocal,)
    face_left: np.ndarray  # local indices of the rank's assigned faces
    face_right: np.ndarray
    face_normal: np.ndarray
    wall_cell: np.ndarray  # owned-only
    wall_normal: np.ndarray
    far_cell: np.ndarray  # owned-only
    far_normal: np.ndarray


def _local_cart_level(level: Cart3DLevel, h, part) -> CartLevelPart:
    """Rank-local payload for one halo of a flow level."""
    del part  # boundary ownership follows the halo, not the partition
    l2g = h.local_to_global()
    g2l = np.full(level.nflow, -1, dtype=np.int64)
    g2l[l2g] = np.arange(len(l2g))
    owned_mask = np.zeros(level.nflow, dtype=bool)
    owned_mask[h.owned_global] = True

    wall_sel = owned_mask[level.wall_cell]
    far_sel = owned_mask[level.far_cell]
    return CartLevelPart(
        vol=level.vol[l2g],
        face_left=h.edges[:, 0],
        face_right=h.edges[:, 1],
        face_normal=level.face_normal[h.edge_gids],
        wall_cell=g2l[level.wall_cell[wall_sel]],
        wall_normal=level.wall_normal[wall_sel],
        far_cell=g2l[level.far_cell[far_sel]],
        far_normal=level.far_normal[far_sel],
    )


class _FaceBatch:
    """The faces of several rank-local slices stacked end to end, so a
    pass makes one call per flux kernel however many partitions the
    kernels object was handed.  Holds what no pass changes: the stacked
    split normals and each slice's span in them."""

    def __init__(self, slices: dict):
        self.slices = slices  # {pid: CartLevelPart}
        self.face_normals, self.faces = self._stack("face_normal")
        self.wall_normals, self.walls = self._stack("wall_normal")
        self.far_normals, self.fars = self._stack("far_normal")

    def _stack(self, name) -> tuple:
        rows = [getattr(s, name) for s in self.slices.values()]
        ends = accumulate(len(r) for r in rows)
        return split_normals(np.concatenate(rows)), [
            slice(e - len(r), e) for r, e in zip(rows, ends)
        ]


def _face_batch(doms) -> _FaceBatch:
    """Every face of the level slices in ``doms``, as one batch."""
    return level_cache(doms, "cart3d_batch", lambda: _FaceBatch(
        {p: dom.ctx for p, dom in doms.items()}
    ))


def _split_batches(doms) -> tuple:
    """(interior, ghost) split of :func:`_face_batch` for overlapped
    exchange: interior faces touch only owned cells (computable while
    ghost updates are in transit).  Wall/far boundary lists are
    owned-only and go with the interior batch."""

    def build():
        none = np.empty(0, dtype=np.int64)
        no_normal = np.empty((0, 3), dtype=np.float64)
        interior, ghost = {}, {}
        for p, dom in doms.items():
            ctx = dom.ctx
            gmask = (ctx.face_left >= dom.nowned) \
                | (ctx.face_right >= dom.nowned)
            interior[p] = CartLevelPart(
                ctx.vol, ctx.face_left[~gmask], ctx.face_right[~gmask],
                ctx.face_normal[~gmask], ctx.wall_cell, ctx.wall_normal,
                ctx.far_cell, ctx.far_normal,
            )
            ghost[p] = CartLevelPart(
                ctx.vol, ctx.face_left[gmask], ctx.face_right[gmask],
                ctx.face_normal[gmask], none, no_normal, none, no_normal,
            )
        return _FaceBatch(interior), _FaceBatch(ghost)

    return level_cache(doms, "cart3d_split", build)


def _globally_physical(comm, doms, qs) -> bool:
    """check_physical over the union of owned rows, agreed by allreduce
    (every rank makes the same damping decision, like the serial
    global check)."""
    total = comm.allreduce({
        p: np.array([0.0 if check_physical(qs[p][: dom.nowned]) else 1.0])
        for p, dom in doms.items()
    })
    return total[0] == 0.0


class Cart3DKernels:
    """Cart3D's :class:`~repro.runtime.driver.SolverKernels`."""

    name = "cart3d"
    #: coarse levels run first order and need the reduced RK stability
    #: margin; 0.75 reproduces the historical coarse_cfl=1.5 at the
    #: default cfl=2.0 — see the policy in :mod:`repro.runtime.multigrid`
    coarse_cfl_fraction = 0.75

    def __init__(self, qinf: np.ndarray, flux: str = "vanleer"):
        self.qinf = np.asarray(qinf, dtype=np.float64)
        self.flux = flux
        # the engine holds no state, so the kernels object stays
        # picklable for WorkerSpec transport
        self.engine = get_engine()

    # -- driver hooks --------------------------------------------------------

    def init_state(self, dom) -> np.ndarray:
        return np.tile(self.qinf, (dom.nlocal, 1))

    def volumes(self, dom) -> np.ndarray:
        return dom.ctx.vol

    def fix_restricted_state(self, dom, q: np.ndarray) -> np.ndarray:
        return q  # cut-cell BCs are flux-based; no strong state fixup

    def mask_forcing(self, dom, f: np.ndarray) -> np.ndarray:
        return f

    def defect(self, X, doms, qs, forcing=None) -> dict:
        with use_engine(self.engine):
            return self._completed_residual(X, doms, qs, forcing, None)

    def residual_norm(self, comm, X, doms, qs) -> float:
        """Global volume-scaled L2 density-residual norm (allreduce)."""
        rs = self.defect(X, doms, qs)
        total = comm.allreduce({
            p: np.array([
                np.sum((rs[p][: dom.nowned, 0]
                        / dom.ctx.vol[: dom.nowned]) ** 2),
                dom.nowned,
            ])
            for p, dom in doms.items()
        })
        return float(np.sqrt(total[0] / total[1]))

    def apply_correction(self, comm, X, doms, qs, dqs) -> dict:
        """Serial guard, made global: fall back to a damped correction
        if prolongation produced an unphysical state, with the damping
        decision agreed across ranks."""
        cand = {p: qs[p] + dqs[p] for p in doms}
        scale = 1.0
        while not _globally_physical(comm, doms, cand) and scale > 1e-3:
            scale *= 0.5
            cand = {p: qs[p] + scale * dqs[p] for p in doms}
        if _globally_physical(comm, doms, cand):
            qs = cand
        return qs

    def smooth(self, X, doms, qs, *, forcing=None, cfl: float = 2.0,
               nsteps: int = 1, overlap: bool = False) -> dict:
        """Domain-decomposed 5-stage RK with ghost refresh per stage,
        overlapped with the next stage's interior residual when
        ``overlap`` is set.  An unphysical stage is damped by the serial
        smoother's guard, with the decision agreed across ranks.
        """
        engine = self.engine
        with use_engine(engine):
            qs = dict(qs)
            X.copy(qs, tag=22)
            pending = None
            for _ in range(nsteps):
                if pending is not None:
                    pending.finish()
                    pending = None
                dt = self._time_step(X, doms, qs, cfl)
                dtov = {p: dt[p] / doms[p].ctx.vol for p in doms}
                q0 = {p: qs[p].copy() for p in doms}
                for alpha in RK_COEFFS:
                    rs = self._completed_residual(
                        X, doms, qs, forcing, pending
                    )
                    pending = None
                    cand = {
                        p: engine.rk_update(q0[p], alpha * dtov[p], rs[p])
                        for p in doms
                    }
                    if not _globally_physical(X.comm, doms, cand):
                        # halve the step until physical (rarely more
                        # than once); the decision is collective so
                        # all ranks damp identically
                        scale = 0.5
                        for _ in range(6):
                            cand = {
                                p: engine.rk_update(
                                    q0[p], scale * alpha * dtov[p], rs[p]
                                )
                                for p in doms
                            }
                            if _globally_physical(X.comm, doms, cand):
                                break
                            scale *= 0.5
                        else:
                            raise FloatingPointError(
                                "RK stage unrecoverable: negative "
                                "density/pressure"
                            )
                    qs = cand
                    if overlap:
                        pending = X.start_copy(qs, tag=23)
                    else:
                        X.copy(qs, tag=23)
            if pending is not None:
                pending.finish()
        return qs

    # -- internals -----------------------------------------------------------

    def _batch_residual(self, batch: _FaceBatch, qs) -> dict:
        """Flux accumulation over a batch's faces plus its (owned-only)
        wall/far boundary fluxes: states gathered per partition and
        stacked, one call per flux kernel, each partition's rows
        scattered through its own operators in its own face order."""

        def gather(cells):
            return np.concatenate(
                [qs[p][getattr(s, cells)] for p, s in batch.slices.items()]
            )

        flux = FLUX_FUNCTIONS[self.flux](
            gather("face_left"), gather("face_right"), batch.face_normals
        )
        # a batch without boundary faces (the ghost one) skips the calls
        wall, far = gather("wall_cell"), gather("far_cell")
        if len(wall):
            wall = wall_flux(wall, batch.wall_normals)
        if len(far):
            far = rusanov_flux(
                far, np.broadcast_to(self.qinf, far.shape), batch.far_normals
            )
        rs = {}
        for (p, s), faces, walls, fars in zip(
            batch.slices.items(), batch.faces, batch.walls, batch.fars
        ):
            r = rs[p] = np.zeros_like(qs[p])
            self.engine.scatter_add(r, s.face_scatter, flux[faces])
            if len(s.wall_cell):
                self.engine.scatter_add(r, s.wall_scatter, wall[walls])
            if len(s.far_cell):
                self.engine.scatter_add(r, s.far_scatter, far[fars])
        return rs

    def _completed_residual(self, X, doms, qs, forcing, pending) -> dict:
        """Residual completed across ranks: local flux accumulation
        (split into interior/ghost faces when finishing an overlapped
        exchange), exchange-add to owners, ghost rows zeroed, forcing
        subtracted."""
        if pending is None:
            rs = self._batch_residual(_face_batch(doms), qs)
            X.charge(self._flops(doms))
        else:
            # paper fig. 7: compute the interior while ghost values are
            # in transit, then finish the exchange and add the
            # ghost-touching face contributions
            interior, ghost = _split_batches(doms)
            rs = self._batch_residual(interior, qs)
            X.charge(self._flops(doms))
            pending.finish()
            late = self._batch_residual(ghost, qs)
            rs = {p: rs[p] + late[p] for p in doms}
        X.add(rs, tag=1)
        out = {}
        for p, dom in doms.items():
            r = rs[p]
            r[dom.nowned:] = 0.0
            if forcing is not None:
                r = r - forcing[p]
            out[p] = r
        return out

    def _time_step(self, X, doms, qs, cfl) -> dict:
        """Local spectral-radius accumulation completed across ranks."""
        accs = {
            p: spectral_radius(dom.ctx, qs[p])[:, None]
            for p, dom in doms.items()
        }
        X.add(accs, tag=21)
        return {
            p: cfl * dom.ctx.vol / np.maximum(accs[p][:, 0], 1e-300)
            for p, dom in doms.items()
        }

    def _flops(self, doms) -> dict:
        return {
            p: dom.nlocal * FLOPS_PER_CELL_RESIDUAL
            for p, dom in doms.items()
        }


def make_parallel_cart3d(solver: Cart3DSolver, nparts: int, *,
                         config: RuntimeConfig | None = None
                         ) -> DistributedSolveDriver:
    """Decompose a serial Cart3D solver for the distributed runtime.

    SFC-segment partitioning of the fine level (cut cells weighted
    2.1x), the whole level hierarchy derived from it, and a driver that
    runs full FAS cycles on it: call ``.solve(ncycles, cfl=...)`` for
    the backend ``config`` selects, or ``.run(world, ncycles, cfl=...)``
    with your own :class:`SimMPI` world.  What is decomposed is the
    solver itself, so its flux function carries over.  The distributed
    path runs first order (like the serial coarse levels); second-order
    fine-level reconstruction needs distributed least-squares gradients
    and stays serial.
    """
    part = SFCPartitioner.from_level(solver.levels[0]).partition(nparts)
    specs = [
        LevelSpec(
            nvert=lvl.nflow,
            edges=np.column_stack([lvl.face_left, lvl.face_right]),
            payload=lambda h, p, lvl=lvl: _local_cart_level(lvl, h, p),
        )
        for lvl in solver.levels
    ]
    clusters = [t.parent for t in solver.transfers]
    kernels = Cart3DKernels(solver.qinf, flux=solver.flux)
    return DistributedSolveDriver(
        build_domain_hierarchy(specs, clusters, part), kernels, solver.qinf,
        config=config,
    )
