"""NSU3D physics kernels for the unified distributed runtime.

The distributed-execution structure — partitioning, ghost numbering,
exchange scheduling, the cycle loop, multigrid transfers — lives in
:mod:`repro.runtime` (one stack for both solvers; lint rule R008 keeps
it that way).  This module contributes only what is NSU3D-specific:

* the rank-local :class:`FlowContext` payload built from a halo,
* :class:`_Stack` — those payloads, for whatever partitions a kernels
  object is handed, concatenated with vertex offsets into one
  :class:`FlowContext` per level (a
  :class:`~repro.runtime.domain.RowStack`, like Cart3D's), cached on
  the level,
* :class:`NSU3DKernels` — the residual/smoother/transfer hooks the
  :class:`~repro.runtime.driver.DistributedSolveDriver` drives on a
  level's stacked state (preconditioned-multistage line-implicit
  smoothing with the implicit operator's edge contributions summed
  across ranks, fig. 6), and
* :func:`make_parallel_nsu3d`, which decomposes a serial solver:
  partition, domain hierarchy, kernels, driver.

Because implicit lines are never split by the partitioner (fig. 6b),
the block-tridiagonal solves remain rank-local.  State width is carried
as data: the :class:`~repro.solvers.gas.VariableLayout` derived from
``qinf`` threads through the kernels into the runtime, so the same
driver runs the 5-variable laminar/inviscid system and the 6-variable
SA-RANS one.  The SA source terms are evaluated at owned rows from
halo-completed Green-Gauss gradients — each rank's partial surface sums
are exchange-added to their owners (every dual face lives on exactly
one rank) before dividing by the control volumes, the residual's own
partial-sum/complete/finalize pattern.

One master thread does the work and the exchange for every partition
of its rank (paper section III), so every pass runs the *serial* kernels
(:func:`~.residual.residual`, :class:`~.linesolve.FrozenOperator`, the
Green-Gauss sums) **once** on the stacked context: the state of a level
is one array over the partitions' rows end to end, the exchanger takes
that same array, and ``X.charge`` and the allreduce get one
contribution per partition — same call sites, same tags, same message
counts and virtual ledger as one call per partition.  Stacking moves no
bit: rows of different partitions never share a scatter row (the
offsets keep them apart and an ``incidence`` operator adds a row's
contributions in list order), and every other kernel is row-, edge- or
line-local (batched LAPACK works per matrix, the ``einsum`` contractions
never reduce across the batch axis).  Equal-length line batches merge
across partitions — the paper's "sets of 64 lines of similar length"
made fatter.  What stays per partition is what must: reductions (norms,
the limiter's reference) fold per partition and then per rank so no sum
is reassociated, and the messages the exchange charges.

Correctness contract (tested): per-rank results equal the serial solver
on the same mesh to floating-point-reassociation tolerance — full FAS
cycles, overlap on or off — and equal a one-partition-at-a-time
evaluation exactly (``tests/test_nsu3d_stack.py``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

import numpy as np

from ...kernels import get_engine, use_engine
from ...runtime import (
    DistributedSolveDriver,
    LevelSpec,
    MetisLinePartitioner,
    RuntimeConfig,
    build_domain_hierarchy,
)
from ...runtime.domain import RowStack, level_cache
from ..gas import (
    apply_positivity_floors,
    conservative_to_primitive,
    variable_layout,
)
from .context import FlowContext
from .gradients import GradientSurface, green_gauss_sums, vorticity_magnitude
from .linesolve import (
    STAGE_COEFFS,
    FrozenOperator,
    limit_correction,
    stage_update,
)
from .residual import (
    apply_wall_bc,
    mask_wall_rows,
    residual,
    sa_source_residual,
)
from .solver import FLOPS_PER_POINT_RESIDUAL, NSU3DSolver


def _local_flow_context(ctx: FlowContext, h: Any, part: np.ndarray) -> FlowContext:
    """Rank-local :class:`FlowContext` payload for one halo: geometry in
    local numbering, boundary lists owned-only, lines rank-local.

    On the fine level the context carries a rank-local
    :class:`~repro.solvers.nsu3d.gradients.GradientSurface` — this
    rank's dual faces plus the owned boundary closure — so the serial
    Green-Gauss kernels produce partial surface sums whose exchange-add
    completes them exactly (each dual face lives on one rank, each
    boundary face on its vertex's owner).
    """
    l2g = h.local_to_global()
    g2l = np.full(ctx.npoints, -1, dtype=np.int64)
    g2l[l2g] = np.arange(len(l2g))
    owned_mask = np.zeros(ctx.npoints, dtype=bool)
    owned_mask[h.owned_global] = True

    def filter_boundary(
        verts: np.ndarray, normals: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        sel = owned_mask[verts]
        return g2l[verts[sel]], normals[sel]

    wall_v, wall_n = filter_boundary(ctx.wall_vert, ctx.wall_normal)
    far_v, far_n = filter_boundary(ctx.far_vert, ctx.far_normal)
    sym_v, sym_n = filter_boundary(ctx.sym_vert, ctx.sym_normal)
    local_lines = [
        g2l[line] for line in ctx.lines if part[line[0]] == h.rank
    ]
    dual: GradientSurface | None = None
    if ctx.dual is not None:
        bsel = owned_mask[ctx.dual.bvert]
        dual = GradientSurface(
            edges=h.edges,
            face_vectors=ctx.face_vectors[h.edge_gids],
            volumes=ctx.volumes[l2g],
            bvert=g2l[ctx.dual.bvert[bsel]],
            bnormal=ctx.dual.bnormal[bsel],
        )
    return FlowContext(
        points=ctx.points[l2g],
        edges=h.edges,
        face_vectors=ctx.face_vectors[h.edge_gids],
        volumes=ctx.volumes[l2g],
        dist=ctx.dist[l2g],
        mu_lam=ctx.mu_lam,
        wall_vert=wall_v,
        wall_normal=wall_n,
        far_vert=far_v,
        far_normal=far_n,
        sym_vert=sym_v,
        sym_normal=sym_n,
        lines=local_lines,
        dual=dual,
    )


class _Stack(RowStack):
    """The rank-local contexts of the partitions a kernels object is
    handed, end to end as one :class:`FlowContext` (``ctx``), so a pass
    runs each serial kernel once."""

    def __init__(self, doms: dict):
        super().__init__(doms)
        ctxs = [dom.ctx for dom in doms.values()]

        def rows(name: str) -> np.ndarray:
            return self.concat(ctxs, name)

        def ids(name: str) -> np.ndarray:
            return self.concat(ctxs, name, ids=True)

        edges, face_vectors, volumes = (
            ids("edges"), rows("face_vectors"), rows("volumes")
        )
        dual = None
        if ctxs[0].dual is not None:
            duals = [c.dual for c in ctxs]
            dual = GradientSurface(
                edges=edges, face_vectors=face_vectors, volumes=volumes,
                bvert=self.concat(duals, "bvert", ids=True),
                bnormal=self.concat(duals, "bnormal"),
            )
        self.ctx = FlowContext(
            points=rows("points"), edges=edges, face_vectors=face_vectors,
            volumes=volumes, dist=rows("dist"), mu_lam=ctxs[0].mu_lam,
            wall_vert=ids("wall_vert"), wall_normal=rows("wall_normal"),
            far_vert=ids("far_vert"), far_normal=rows("far_normal"),
            sym_vert=ids("sym_vert"), sym_normal=rows("sym_normal"),
            lines=[line + s for c, s in zip(ctxs, self.starts)
                   for line in c.lines],
            dual=dual,
        )


def _stack(doms: dict) -> _Stack:
    return level_cache(doms, "nsu3d_stack", lambda: _Stack(doms))


def _split_stack(doms: dict) -> tuple:
    """(interior, ghost) split of the stacked context for overlapped
    exchange: interior edges touch only owned vertices (computable
    while ghost updates are in transit); ghost edges carry everything
    else.  Boundary lists are owned-only and go with the interior part.
    Valid because the split residual runs with ``sa_sources=False`` —
    purely edge- and boundary-based terms; the pointwise SA sources are
    added once from halo-completed gradients after the exchange
    finishes."""

    def build():
        stack = _stack(doms)
        ctx = stack.ctx
        gmask = stack.ghost[ctx.edges].any(axis=1)
        interior = replace(
            ctx, edges=ctx.edges[~gmask],
            face_vectors=ctx.face_vectors[~gmask], lines=[], dual=None,
        )
        ghost = FlowContext(
            points=ctx.points, edges=ctx.edges[gmask],
            face_vectors=ctx.face_vectors[gmask], volumes=ctx.volumes,
            dist=ctx.dist, mu_lam=ctx.mu_lam,
        )
        return interior, ghost

    return level_cache(doms, "nsu3d_split", build)


class NSU3DKernels:
    """NSU3D's :class:`~repro.runtime.driver.SolverKernels`."""

    name = "nsu3d"
    #: coarse levels tolerate the fine CFL (historical ``coarse_cfl or
    #: cfl`` behavior) — see the policy in :mod:`repro.runtime.multigrid`
    coarse_cfl_fraction = 1.0

    def __init__(self, qinf: np.ndarray, viscous: bool = True,
                 turbulence: bool | None = None):
        self.qinf = np.asarray(qinf, dtype=np.float64)
        self.viscous = viscous
        #: the state width travels as data, not as hard-coded slots —
        #: every runtime layer (domain state, slab carving, exchange
        #: blocks) derives its width from this layout
        self.layout = variable_layout(len(self.qinf))
        self.turbulence = (
            turbulence if turbulence is not None
            else bool(self.layout.turbulence)
        )
        # the engine holds no state, so the kernels object stays
        # picklable for WorkerSpec transport
        self.engine = get_engine()

    # -- driver hooks --------------------------------------------------------

    def init_state(self, doms) -> np.ndarray:
        return np.tile(self.qinf, (sum(d.nlocal for d in doms.values()), 1))

    def volumes(self, doms) -> np.ndarray:
        return _stack(doms).ctx.volumes

    def fix_restricted_state(self, doms, q: np.ndarray) -> np.ndarray:
        # the restricted base state must satisfy the coarse level's own
        # strong wall condition, or the correction q_c - q_c0 acquires a
        # spurious momentum component at every wall agglomerate
        return apply_wall_bc(_stack(doms).ctx, q)

    def mask_forcing(self, doms, f: np.ndarray) -> np.ndarray:
        return mask_wall_rows(_stack(doms).ctx, f)

    def defect(self, X, doms, q, forcing=None) -> np.ndarray:
        with use_engine(self.engine):
            return self._completed_residual(X, doms, q, forcing, None)

    def residual_norm(self, comm, X, doms, q) -> float:
        """Global volume-scaled L2 continuity-residual norm (allreduce)."""
        stack = _stack(doms)
        r = self.defect(X, doms, q)
        total = comm.allreduce({
            p: np.array([
                np.sum((r[own, 0] / stack.ctx.volumes[own]) ** 2),
                own.stop - own.start,
            ])
            for p, own in stack.owned_spans.items()
        })
        return float(np.sqrt(total[0] / total[1]))

    def apply_correction(self, comm: Any, X: Any, doms: dict,
                         q: np.ndarray, dq: np.ndarray) -> np.ndarray:
        cand = apply_wall_bc(_stack(doms).ctx, limit_correction(
            q, dq, turb_ref=self._turbulence_reference(comm, doms, q),
        ))
        return apply_positivity_floors(cand)

    def _turbulence_reference(
        self, comm: Any, doms: dict, q: np.ndarray
    ) -> np.ndarray | None:
        """Global field maxima of the turbulence working variables.

        The correction limiter's growth floor is tied to the largest
        working-variable level *in the field*; an allreduce-max over
        owned rows (exact — max is order-independent) hands every rank
        the serial reference, so partitioning does not change the
        limiter."""
        turbulence = list(self.layout.turbulence)
        if not turbulence:
            return None
        result: np.ndarray = comm.allreduce({
            p: np.abs(q[own, turbulence]).max(axis=0)
            for p, own in _stack(doms).owned_spans.items()
        }, op="max")
        return result

    def smooth(self, X, doms, q, *, forcing=None, cfl: float = 10.0,
               nsteps: int = 1, overlap: bool = False) -> np.ndarray:
        """Preconditioned-multistage implicit smoothing, decomposed.

        Each step freezes the implicit operator (exchanged diagonal +
        rank-local line blocks) at the step's initial state and runs the
        three-stage recursion; ghost refresh per stage, overlapped with
        the next stage's interior residual when ``overlap`` is set.
        The serial smoother's step on the stacked context, plus its
        exchanges on the stacked state.
        """
        stack = _stack(doms)
        ctx = stack.ctx
        with use_engine(self.engine):
            q = apply_wall_bc(ctx, q)
            X.copy(q, tag=13)
            pending = None
            for _ in range(nsteps):
                if pending is not None:
                    pending.finish()
                    pending = None
                # no later write reaches the step's initial state: each
                # stage's update is a fresh array
                q0 = q
                operator = self._operator(X, stack, q0, cfl)
                # the limiter's growth floor references the step-initial
                # state, identically on every rank (allreduce-max)
                turb_ref = self._turbulence_reference(X.comm, doms, q0)
                for alpha in STAGE_COEFFS:
                    r = self._completed_residual(
                        X, doms, q, forcing, pending
                    )
                    pending = None
                    q = stage_update(
                        ctx, q0, -alpha * operator.solve(r), turb_ref
                    )
                    if overlap:
                        pending = X.start_copy(q, tag=14)
                    else:
                        X.copy(q, tag=14)
            if pending is not None:
                pending.finish()
        return q

    # -- internals -----------------------------------------------------------

    def _completed_residual(self, X: Any, doms: dict, q: np.ndarray,
                            forcing: np.ndarray | None,
                            pending: Any) -> np.ndarray:
        """Stacked residual of the stacked state ``q`` completed across
        ranks: local evaluation (split into interior/ghost parts when
        finishing an overlapped exchange), exchange-add to owners, ghost
        rows zeroed, SA sources added at owned rows from halo-completed
        gradients, strong wall rows re-imposed, the (stacked) forcing
        subtracted.  Inside the window the state is read as
        ``pending.q`` — guarded when the sanitizer is armed — and never
        as ``q``."""
        stack = _stack(doms)
        terms = dict(turbulence=self.turbulence, viscous=self.viscous,
                     sa_sources=False)
        if pending is None:
            r = residual(stack.ctx, q, self.qinf, **terms)
            X.charge(self._flops(doms))
        else:
            # paper fig. 7: compute the interior while ghost values are
            # in transit, then finish the exchange and add the
            # ghost-touching edge contributions
            interior, ghost = _split_stack(doms)
            r = residual(interior, pending.q, self.qinf, **terms)
            X.charge(self._flops(doms))
            pending.finish()
            r = r + residual(ghost, q, self.qinf, **terms)
        # the gradient pass reads ghost state, so it runs only after the
        # exchange above has finished (sanitizer-safe)
        sa = self._sa_fields(X, stack, q)
        X.add(r, tag=1)
        r[stack.ghost] = 0.0
        if sa is not None:
            # pointwise SA sources at owned rows (each vertex is owned
            # by exactly one rank — no double counting)
            vort, grad_nu = sa
            ctx, own = stack.ctx, stack.owned
            sa_var = self.layout.turbulence[0]
            prim = conservative_to_primitive(q[own])
            r[own, sa_var] += sa_source_residual(
                prim[:, 0], prim[:, sa_var], vort[own], grad_nu[own],
                ctx.dist[own], ctx.mu_lam, ctx.volumes[own],
            )
        # remote edge contributions landed after residual()'s own
        # masking; re-impose the strong wall rows
        r = mask_wall_rows(stack.ctx, r)
        if forcing is not None:
            r = r - forcing
        return r

    def _sa_fields(self, X: Any, stack: _Stack, q: np.ndarray
                   ) -> tuple | None:
        """Halo-completed vorticity magnitude and SA-gradient fields
        ``(vort, grad_nu)`` of the stacked state (or ``None`` when SA
        sources are off).

        Fine levels accumulate each rank's partial Green-Gauss surface
        sums over its :class:`GradientSurface` and complete them with an
        exchange-add before dividing by the control volumes; coarse
        (agglomerated) levels complete the edge-difference vorticity
        estimate the same way.  Ghost rows of the completed sums are
        zeroed by the exchange — the sources are only evaluated at owned
        rows."""
        layout = self.layout
        ctx = stack.ctx
        if not (self.turbulence and layout.turbulence and self.viscous
                and ctx.mu_lam > 0.0):
            return None
        prim = conservative_to_primitive(q)
        if ctx.dual is not None:
            fields = np.column_stack(
                [prim[:, 1:4], prim[:, layout.turbulence[0]]]
            )
            sums = green_gauss_sums(
                ctx.dual, fields, ctx.gradient_scatters
            ).reshape(ctx.npoints, 3 * fields.shape[1])
            X.add(sums, tag=15)
            grads = sums.reshape(ctx.npoints, 3, -1)
            grads = grads / ctx.volumes[:, None, None]
            return vorticity_magnitude(grads[:, :, :3]), grads[:, :, 3]
        vel = prim[:, 1:4]
        rate = (
            np.linalg.norm(vel[ctx.edges[:, 1]] - vel[ctx.edges[:, 0]],
                           axis=1) / ctx.edge_lengths
        )
        total = np.zeros(ctx.npoints, dtype=np.float64)
        self.engine.scatter_add(total, ctx.edge_scatter_unsigned, rate)
        accs = np.column_stack([total, ctx.edge_degree])
        X.add(accs, tag=16)
        vort = accs[:, 0] / np.maximum(accs[:, 1], 1.0)
        return vort, np.zeros((ctx.npoints, 3), dtype=np.float64)

    def _operator(self, X: Any, stack: _Stack, q: np.ndarray,
                  cfl: float) -> FrozenOperator:
        """The serial smoother's frozen operator on the stacked context,
        its spectral sums and diagonal blocks completed across ranks
        (each cross edge lives on exactly one rank)."""
        return FrozenOperator(stack.ctx, q, cfl, owner_sum=X.add)

    def _flops(self, doms) -> dict:
        return {
            p: dom.ctx.npoints * FLOPS_PER_POINT_RESIDUAL
            for p, dom in doms.items()
        }


def make_parallel_nsu3d(solver: NSU3DSolver, nparts: int, *, seed: int = 0,
                        config: RuntimeConfig | None = None
                        ) -> DistributedSolveDriver:
    """Decompose a serial NSU3D solver for the distributed runtime.

    Line-contracted METIS partition of the fine level (implicit lines
    are never split, fig. 6b), the whole agglomeration hierarchy derived
    from it, and a driver that runs full FAS cycles on it: call
    ``.solve(ncycles, cfl=...)`` for the backend ``config`` selects, or
    ``.run(world, ncycles, cfl=...)`` with your own :class:`SimMPI`
    world.  What is decomposed is the solver itself, so its variable
    layout and physics flags carry over: turbulent (SA, 6-variable)
    solvers decompose exactly like laminar ones — wall
    distances and Green-Gauss gradient surfaces are split per rank, the
    gradients the SA source terms need are completed by halo
    accumulation, and the correction limiter's turbulence reference is
    allreduced so results are partition-independent.
    """
    fine = solver.contexts[0]
    part = MetisLinePartitioner(
        fine.npoints, fine.edges, lines=fine.lines, seed=seed,
    ).partition(nparts)
    specs = [
        LevelSpec(
            nvert=c.npoints, edges=c.edges,
            payload=lambda h, p, c=c: _local_flow_context(c, h, p),
        )
        for c in solver.contexts
    ]
    kernels = NSU3DKernels(solver.qinf, turbulence=solver.turbulence)
    return DistributedSolveDriver(
        build_domain_hierarchy(specs, solver.maps, part), kernels,
        solver.qinf, config=config,
    )
