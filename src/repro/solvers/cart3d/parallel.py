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
* :class:`_Stack` — those payloads, for whatever partitions a kernels
  object is handed, end to end as one :class:`CartLevelPart` per level
  (a :class:`~repro.runtime.domain.RowStack`, like NSU3D's), plus its
  interior/ghost face halves, cached on the level,
* :class:`Cart3DKernels` — the residual / 5-stage Runge-Kutta hooks
  the :class:`~repro.runtime.driver.DistributedSolveDriver` drives on
  a level's stacked state, and
* :func:`make_parallel_cart3d`, which decomposes a serial solver:
  partition, domain hierarchy, kernels, driver.

One master thread does the work for every partition of its rank (paper
section III): the state of a level is one array over the stacked rows
of the partitions, every pass runs the *serial* kernels once on it, and
the exchanger takes that same array; ``X.charge`` and the allreduce get
one contribution per partition, so tags, message counts and the virtual
ledger do not move.  Stacking moves no bit: fluxes are face-local, rows
of different partitions never share a scatter row, and reductions still
fold per partition.

Correctness contract (tested): per-rank results equal the serial solver
on the same level hierarchy to floating-point-reassociation tolerance —
full FAS cycles, overlap on or off — and equal a one-partition-at-a-time
evaluation exactly (``tests/test_cart3d_batch.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from ...kernels import get_engine, use_engine
from ...runtime import (
    DistributedSolveDriver,
    LevelSpec,
    RuntimeConfig,
    SFCPartitioner,
    build_domain_hierarchy,
)
from ...runtime.domain import RowStack, level_cache
from ..gas import pressure
from .levels import Cart3DLevel, FaceOperators
from .residual import residual, spectral_radius
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


class _Stack(RowStack):
    """The rank-local slices of the partitions a kernels object is
    handed, end to end as one :class:`CartLevelPart` (``part``): the
    scatter operators and split normals of every pass are built on it,
    the per-partition slices build none."""

    #: the fields holding cell indices, offset to the stack's rows
    CELLS = ("face_left", "face_right", "wall_cell", "far_cell")

    def __init__(self, doms: dict):
        super().__init__(doms)
        parts = [dom.ctx for dom in doms.values()]
        self.part = CartLevelPart(**{
            f.name: self.concat(parts, f.name, ids=f.name in self.CELLS)
            for f in fields(CartLevelPart)
        })

    @cached_property
    def halves(self) -> tuple:
        """(interior, ghost) split of ``part`` for overlapped exchange:
        interior faces touch only owned cells (computable while ghost
        updates are in transit).  Wall/far boundary lists are
        owned-only and go with the interior half."""
        part = self.part
        gmask = self.ghost[part.face_left] | self.ghost[part.face_right]
        none = np.empty(0, dtype=np.int64)
        no_normal = np.empty((0, 3), dtype=np.float64)

        def faces(sel):
            return dict(face_left=part.face_left[sel],
                        face_right=part.face_right[sel],
                        face_normal=part.face_normal[sel])

        return replace(part, **faces(~gmask)), replace(
            part, **faces(gmask), wall_cell=none, wall_normal=no_normal,
            far_cell=none, far_normal=no_normal,
        )


def _stack(doms) -> _Stack:
    return level_cache(doms, "cart3d_stack", lambda: _Stack(doms))


def _split_stack(doms) -> tuple:
    """The stacked level's (interior, ghost) face halves."""
    return _stack(doms).halves


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

    def init_state(self, doms) -> np.ndarray:
        return np.tile(self.qinf, (sum(d.nlocal for d in doms.values()), 1))

    def volumes(self, doms) -> np.ndarray:
        return _stack(doms).part.vol

    def fix_restricted_state(self, doms, q: np.ndarray) -> np.ndarray:
        return q  # cut-cell BCs are flux-based; no strong state fixup

    def mask_forcing(self, doms, f: np.ndarray) -> np.ndarray:
        return f

    def defect(self, X, doms, q, forcing=None) -> np.ndarray:
        with use_engine(self.engine):
            return self._completed_residual(X, doms, q, forcing, None)

    def residual_norm(self, comm, X, doms, q) -> float:
        """Global volume-scaled L2 density-residual norm (allreduce)."""
        stack = _stack(doms)
        r = self.defect(X, doms, q)
        total = comm.allreduce({
            p: np.array([
                np.sum((r[own, 0] / stack.part.vol[own]) ** 2),
                own.stop - own.start,
            ])
            for p, own in stack.owned_spans.items()
        })
        return float(np.sqrt(total[0] / total[1]))

    def apply_correction(self, comm, X, doms, q, dq) -> np.ndarray:
        """Serial guard, made global: fall back to a damped correction
        if prolongation produced an unphysical state, with the damping
        decision agreed across ranks."""
        stack = _stack(doms)
        cand = q + dq
        scale = 1.0
        while not _physical(comm, stack, cand) and scale > 1e-3:
            scale *= 0.5
            cand = q + scale * dq
        if _physical(comm, stack, cand):
            return cand
        return q

    def smooth(self, X, doms, q, *, forcing=None, cfl: float = 2.0,
               nsteps: int = 1, overlap: bool = False) -> np.ndarray:
        """Domain-decomposed 5-stage RK with ghost refresh per stage,
        overlapped with the next stage's interior residual when
        ``overlap`` is set.  An unphysical stage is damped by the serial
        smoother's guard, with the decision agreed across ranks.  The
        serial stage on the stacked level, plus its exchanges on the
        stacked state.
        """
        stack = _stack(doms)
        engine = self.engine
        with use_engine(engine):
            X.copy(q, tag=22)
            pending = None
            for _ in range(nsteps):
                if pending is not None:
                    pending.finish()
                    pending = None
                # no later write reaches the step's initial state: each
                # stage's candidate is a fresh array
                q0 = q
                dtov = self._time_step(X, stack, q, cfl) / stack.part.vol
                for alpha in RK_COEFFS:
                    r = self._completed_residual(
                        X, doms, q, forcing, pending
                    )
                    pending = None
                    cand = engine.rk_update(q0, alpha * dtov, r)
                    if not _physical(X.comm, stack, cand):
                        # halve the step until physical (rarely more
                        # than once); the decision is collective so
                        # all ranks damp identically
                        scale = 0.5
                        for _ in range(6):
                            cand = engine.rk_update(
                                q0, scale * alpha * dtov, r
                            )
                            if _physical(X.comm, stack, cand):
                                break
                            scale *= 0.5
                        else:
                            raise FloatingPointError(
                                "RK stage unrecoverable: negative "
                                "density/pressure"
                            )
                    q = cand
                    if overlap:
                        pending = X.start_copy(q, tag=23)
                    else:
                        X.copy(q, tag=23)
            if pending is not None:
                pending.finish()
        return q

    # -- internals -----------------------------------------------------------

    def _completed_residual(self, X, doms, q, forcing, pending
                            ) -> np.ndarray:
        """Stacked residual of the stacked state ``q``, completed across
        ranks: local flux accumulation (split into interior/ghost faces
        when finishing an overlapped exchange), exchange-add to owners,
        ghost rows zeroed, the (stacked) forcing subtracted.  Inside the
        window the state is read as ``pending.q`` — guarded when the
        sanitizer is armed — and never as ``q``."""
        stack = _stack(doms)
        if pending is None:
            r = residual(stack.part, q, self.qinf, self.flux)
            X.charge(self._flops(doms))
        else:
            # paper fig. 7: compute the interior while ghost values are
            # in transit, then finish the exchange and add the
            # ghost-touching face contributions
            interior, ghost = _split_stack(doms)
            r = residual(interior, pending.q, self.qinf, self.flux)
            X.charge(self._flops(doms))
            pending.finish()
            r = r + residual(ghost, q, self.qinf, self.flux)
        X.add(r, tag=1)
        r[stack.ghost] = 0.0
        if forcing is not None:
            r = r - forcing
        return r

    def _time_step(self, X, stack, q, cfl) -> np.ndarray:
        """Local spectral-radius accumulation completed across ranks."""
        acc = spectral_radius(stack.part, q)[:, None]
        X.add(acc, tag=21)
        return cfl * stack.part.vol / np.maximum(acc[:, 0], 1e-300)

    def _flops(self, doms) -> dict:
        return {
            p: dom.nlocal * FLOPS_PER_CELL_RESIDUAL
            for p, dom in doms.items()
        }


def _physical(comm, stack, q) -> bool:
    """Density and pressure positive on every partition's owned rows,
    agreed by allreduce (every rank makes the same damping decision,
    like the serial global check)."""
    bad = ~((q[:, 0] > 0) & (pressure(q) > 0))
    total = comm.allreduce({
        p: np.array([float(bad[own].any())])
        for p, own in stack.owned_spans.items()
    })
    return total[0] == 0.0


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
