"""NSU3D physics kernels for the unified distributed runtime.

The distributed-execution structure — partitioning, ghost numbering,
exchange scheduling, the cycle loop, multigrid transfers — lives in
:mod:`repro.runtime` (one stack for both solvers; lint rule R008 keeps
it that way).  This module contributes only what is NSU3D-specific:

* the rank-local :class:`FlowContext` payload built from a halo,
* :class:`NSU3DKernels` — the dict-of-partitions residual/smoother/
  transfer hooks the :class:`~repro.runtime.driver.DistributedSolveDriver`
  drives (preconditioned-multistage line-implicit smoothing with the
  implicit operator's edge contributions summed across ranks, fig. 6),
  and
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

Correctness contract (tested): per-rank results equal the serial solver
on the same mesh to floating-point-reassociation tolerance — full FAS
cycles, overlap on or off.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ...kernels import KernelConfig, make_engine, use_engine
from ...runtime import (
    DistributedDomain,
    DistributedSolveDriver,
    LevelSpec,
    MetisLinePartitioner,
    RuntimeConfig,
    build_domain_hierarchy,
)
from ..gas import (
    apply_positivity_floors,
    conservative_to_primitive,
    variable_layout,
)
from .context import FlowContext
from .gradients import GradientSurface, green_gauss_sums, vorticity_magnitude
from .jacobians import (
    assemble_diagonal,
    edge_offdiagonals,
    sa_destruction_diagonal,
    spectral_sum,
)
from .linesolve import (
    STAGE_COEFFS,
    _edge_lookup,
    batch_lines_by_length,
    limit_correction,
    line_offdiag_blocks,
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


def _split_residual_contexts(dom: DistributedDomain) -> tuple:
    """(interior, ghost) context split for overlapped exchange: interior
    edges touch only owned vertices (computable while ghost updates are
    in transit); ghost edges carry everything else.  Boundary lists are
    owned-only and go with the interior part.  Valid because the split
    residual runs with ``sa_sources=False`` — purely edge- and
    boundary-based terms; the pointwise SA sources are added once from
    halo-completed gradients after the exchange finishes."""
    cached = dom.cache.get("nsu3d_split")
    if cached is None:
        ctx = dom.ctx
        gmask = (ctx.edges >= dom.nowned).any(axis=1)
        interior = FlowContext(
            points=ctx.points, edges=ctx.edges[~gmask],
            face_vectors=ctx.face_vectors[~gmask], volumes=ctx.volumes,
            dist=ctx.dist, mu_lam=ctx.mu_lam, wall_vert=ctx.wall_vert,
            wall_normal=ctx.wall_normal, far_vert=ctx.far_vert,
            far_normal=ctx.far_normal, sym_vert=ctx.sym_vert,
            sym_normal=ctx.sym_normal, lines=[], dual=None,
        )
        ghost = FlowContext(
            points=ctx.points, edges=ctx.edges[gmask],
            face_vectors=ctx.face_vectors[gmask], volumes=ctx.volumes,
            dist=ctx.dist, mu_lam=ctx.mu_lam, lines=[], dual=None,
        )
        cached = (interior, ghost)
        dom.cache["nsu3d_split"] = cached
    return cached


class NSU3DKernels:
    """NSU3D's :class:`~repro.runtime.driver.SolverKernels`."""

    name = "nsu3d"
    #: coarse levels tolerate the fine CFL (historical ``coarse_cfl or
    #: cfl`` behavior) — see the policy in :mod:`repro.runtime.multigrid`
    coarse_cfl_fraction = 1.0

    def __init__(self, qinf: np.ndarray, viscous: bool = True,
                 kernel_config: KernelConfig | None = None,
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
        self.kernel_config = (
            kernel_config if kernel_config is not None else KernelConfig()
        )
        # engines hold no compiled state, so the kernels object (and with
        # it the engine choice) stays picklable for WorkerSpec transport
        self.engine = make_engine(self.kernel_config)

    # -- driver hooks --------------------------------------------------------

    def init_state(self, dom) -> np.ndarray:
        return np.tile(self.qinf, (dom.nlocal, 1))

    def volumes(self, dom) -> np.ndarray:
        return dom.ctx.volumes

    def fix_restricted_state(self, dom, q: np.ndarray) -> np.ndarray:
        # the restricted base state must satisfy the coarse level's own
        # strong wall condition, or the correction q_c - q_c0 acquires a
        # spurious momentum component at every wall agglomerate
        return apply_wall_bc(dom.ctx, q)

    def mask_forcing(self, dom, f: np.ndarray) -> np.ndarray:
        return mask_wall_rows(dom.ctx, f)

    def defect(self, X, doms, qs, forcing=None) -> dict:
        with use_engine(self.engine):
            return self._completed_residual(X, doms, qs, forcing, None)

    def residual_norm(self, comm, X, doms, qs) -> float:
        """Global volume-scaled L2 continuity-residual norm (allreduce)."""
        rs = self.defect(X, doms, qs)
        total = comm.allreduce({
            p: np.array([
                np.sum((rs[p][: dom.nowned, 0]
                        / dom.ctx.volumes[: dom.nowned]) ** 2),
                dom.nowned,
            ])
            for p, dom in doms.items()
        })
        return float(np.sqrt(total[0] / total[1]))

    def apply_correction(self, comm: Any, X: Any, doms: dict, qs: dict,
                         dqs: dict) -> dict:
        turb_ref = self._turbulence_reference(comm, doms, qs)
        out = {}
        for p, dom in doms.items():
            cand = apply_wall_bc(
                dom.ctx, limit_correction(qs[p], dqs[p], turb_ref=turb_ref)
            )
            out[p] = apply_positivity_floors(cand)
        return out

    def _turbulence_reference(
        self, comm: Any, doms: dict, qs: dict
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
            p: np.abs(qs[p][: dom.nowned, turbulence]).max(axis=0)
            for p, dom in doms.items()
        }, op="max")
        return result

    def smooth(self, X, doms, qs, *, forcing=None, cfl: float = 10.0,
               nsteps: int = 1, overlap: bool = False) -> dict:
        """Preconditioned-multistage implicit smoothing, decomposed.

        Each step freezes the implicit operator (exchanged diagonal +
        rank-local line blocks) at the step's initial state and runs the
        three-stage recursion; ghost refresh per stage, overlapped with
        the next stage's interior residual when ``overlap`` is set.
        """
        engine = self.engine
        with use_engine(engine):
            qs = {p: apply_wall_bc(doms[p].ctx, qs[p]) for p in sorted(doms)}
            X.copy(qs, tag=13)
            pending = None
            for _ in range(nsteps):
                if pending is not None:
                    pending.finish()
                    pending = None
                dt = self._time_step(X, doms, qs, cfl)
                diag = self._diagonal(X, doms, qs, dt)
                lineops = {p: self._line_structures(doms[p], qs[p])
                           for p in doms}
                # freeze the per-step operator through the engine: gather
                # each group's line diagonals once and factor the
                # off-line blocks once — the three stages reuse them
                line_diags = {
                    p: {length: diag[p][batch]
                        for length, batch in lineops[p][0].items()}
                    for p in doms
                }
                rest_factors = {
                    p: engine.block_factor(diag[p][~lineops[p][2]])
                    if (~lineops[p][2]).any() else None
                    for p in doms
                }
                q0 = {p: qs[p].copy() for p in doms}
                # the limiter's growth floor references the step-initial
                # state, identically on every rank (allreduce-max)
                turb_ref = self._turbulence_reference(X.comm, doms, q0)
                for alpha in STAGE_COEFFS:
                    rs = self._completed_residual(
                        X, doms, qs, forcing, pending
                    )
                    pending = None
                    for p, dom in doms.items():
                        batches, blocks, on_line = lineops[p]
                        r = rs[p]
                        dq = np.zeros_like(r)
                        systems = [
                            (blocks[length][0], line_diags[p][length],
                             blocks[length][1], r[batch])
                            for length, batch in batches.items()
                        ]
                        sols = engine.thomas(systems)
                        for batch, sol in zip(batches.values(), sols):
                            dq[batch.reshape(-1)] = sol.reshape(
                                -1, r.shape[1]
                            )
                        rest = ~on_line
                        if rest.any():
                            dq[rest] = rest_factors[p].solve(r[rest])
                        cand = apply_wall_bc(
                            dom.ctx,
                            limit_correction(q0[p], -alpha * dq,
                                             turb_ref=turb_ref),
                        )
                        for var in self.layout.turbulence:
                            cand[:, var] = np.maximum(cand[:, var], 0.0)
                        qs[p] = apply_positivity_floors(cand)
                    if overlap:
                        pending = X.start_copy(qs, tag=14)
                    else:
                        X.copy(qs, tag=14)
            if pending is not None:
                pending.finish()
        return qs

    # -- internals -----------------------------------------------------------

    def _completed_residual(self, X: Any, doms: dict, qs: dict,
                            forcing: dict | None, pending: Any) -> dict:
        """Residual completed across ranks: local evaluation (split into
        interior/ghost parts when finishing an overlapped exchange),
        exchange-add to owners, ghost rows zeroed, SA sources added at
        owned rows from halo-completed gradients, strong wall rows
        re-imposed, forcing subtracted."""
        rs = {}
        if pending is None:
            for p, dom in doms.items():
                rs[p] = residual(dom.ctx, qs[p], self.qinf,
                                 turbulence=self.turbulence,
                                 viscous=self.viscous, sa_sources=False)
            X.charge(self._flops(doms))
        else:
            # paper fig. 7: compute the interior while ghost values are
            # in transit, then finish the exchange and add the
            # ghost-touching edge contributions
            for p, dom in doms.items():
                interior, _ghost = _split_residual_contexts(dom)
                rs[p] = residual(interior, qs[p], self.qinf,
                                 turbulence=self.turbulence,
                                 viscous=self.viscous, sa_sources=False)
            X.charge(self._flops(doms))
            pending.finish()
            for p, dom in doms.items():
                _interior, ghost = _split_residual_contexts(dom)
                rs[p] = rs[p] + residual(ghost, qs[p], self.qinf,
                                         turbulence=self.turbulence,
                                         viscous=self.viscous,
                                         sa_sources=False)
        # the gradient pass reads ghost state, so it runs only after the
        # exchange above has finished (sanitizer-safe)
        sa = self._sa_fields(X, doms, qs)
        X.add(rs, tag=1)
        out = {}
        sa_var = self.layout.turbulence[0] if self.layout.turbulence else None
        for p, dom in doms.items():
            r = rs[p]
            r[dom.nowned:] = 0.0
            if sa is not None:
                # pointwise SA sources at owned rows (each vertex is
                # owned by exactly one rank — no double counting)
                vort, grad_nu = sa[p]
                ctx = dom.ctx
                own = slice(0, dom.nowned)
                prim = conservative_to_primitive(qs[p][own])
                r[own, sa_var] += sa_source_residual(
                    prim[:, 0], prim[:, sa_var], vort[own], grad_nu[own],
                    ctx.dist[own], ctx.mu_lam, ctx.volumes[own],
                )
            # remote edge contributions landed after residual()'s own
            # masking; re-impose the strong wall rows
            r = mask_wall_rows(dom.ctx, r)
            if forcing is not None:
                r = r - forcing[p]
            out[p] = r
        return out

    def _sa_fields(self, X: Any, doms: dict, qs: dict) -> dict | None:
        """Halo-completed vorticity magnitude and SA-gradient fields,
        ``{pid: (vort, grad_nu)}`` (or ``None`` when SA sources are off).

        Fine levels accumulate each rank's partial Green-Gauss surface
        sums over its :class:`GradientSurface` and complete them with an
        exchange-add before dividing by the control volumes; coarse
        (agglomerated) levels complete the edge-difference vorticity
        estimate the same way.  Ghost rows of the completed sums are
        zeroed by the exchange — the sources are only evaluated at owned
        rows."""
        layout = self.layout
        any_dom = next(iter(doms.values()))
        if not (self.turbulence and layout.turbulence and self.viscous
                and any_dom.ctx.mu_lam > 0.0):
            return None
        engine = self.engine
        sa_var = layout.turbulence[0]
        out: dict = {}
        if any_dom.ctx.dual is not None:
            sums = {}
            for p, dom in doms.items():
                prim = conservative_to_primitive(qs[p])
                fields = np.column_stack([prim[:, 1:4], prim[:, sa_var]])
                sums[p] = green_gauss_sums(
                    dom.ctx.dual, fields, dom.ctx.gradient_scatters
                ).reshape(dom.nlocal, 3 * fields.shape[1])
            X.add(sums, tag=15)
            for p, dom in doms.items():
                grads = sums[p].reshape(dom.nlocal, 3, -1)
                grads = grads / dom.ctx.volumes[:, None, None]
                out[p] = (
                    vorticity_magnitude(grads[:, :, :3]), grads[:, :, 3]
                )
            return out
        accs = {}
        for p, dom in doms.items():
            ctx = dom.ctx
            prim = conservative_to_primitive(qs[p])
            vel = prim[:, 1:4]
            a = ctx.edges[:, 0]
            b = ctx.edges[:, 1]
            rate = (
                np.linalg.norm(vel[b] - vel[a], axis=1) / ctx.edge_lengths
            )
            total = np.zeros(ctx.npoints, dtype=np.float64)
            engine.scatter_add(total, ctx.edge_scatter_unsigned, rate)
            accs[p] = np.column_stack([total, ctx.edge_degree])
        X.add(accs, tag=16)
        for p, dom in doms.items():
            vort = accs[p][:, 0] / np.maximum(accs[p][:, 1], 1.0)
            out[p] = (
                vort, np.zeros((dom.nlocal, 3), dtype=np.float64)
            )
        return out

    def _time_step(self, X, doms, qs, cfl) -> dict:
        """Local spectral-radius accumulation completed across ranks."""
        accs = {
            p: spectral_sum(dom.ctx, qs[p])[:, None]
            for p, dom in doms.items()
        }
        X.add(accs, tag=11)
        return {
            p: cfl * dom.ctx.volumes / np.maximum(accs[p][:, 0], 1e-300)
            for p, dom in doms.items()
        }

    def _diagonal(self, X: Any, doms: dict, qs: dict, dt: dict) -> dict:
        """Implicit diagonal blocks with edge contributions summed
        across ranks (each cross edge lives on exactly one rank).

        Pointwise terms — the V/dt identity and the SA destruction
        linearization — are kept out of the exchanged part (summing
        their ghost copies would double-count them at owners) and
        re-added locally after the cross-rank sum."""
        layout = self.layout
        flats = {}
        vdts = {}
        for p, dom in doms.items():
            ctx = dom.ctx
            q = qs[p]
            nvar = q.shape[1]
            # edge-only contributions: subtract the V/dt identity that
            # assemble_diagonal always adds before exchanging
            diag = assemble_diagonal(ctx, q, dt[p], sa_destruction=False)
            eye = np.eye(nvar)
            vdt = (ctx.volumes / dt[p])[:, None, None] * eye[None, :, :]
            edge_part = diag - vdt
            flats[p] = edge_part.reshape(ctx.npoints, nvar * nvar)
            vdts[p] = vdt
        X.add(flats, tag=12)
        out = {}
        for p, dom in doms.items():
            ctx = dom.ctx
            nvar = qs[p].shape[1]
            total = flats[p].reshape(ctx.npoints, nvar, nvar) + vdts[p]
            if layout.turbulence:
                dest = sa_destruction_diagonal(ctx, qs[p])
                for j, var in enumerate(layout.turbulence):
                    total[:, var, var] += dest[:, j]
            # strong wall rows were summed over; rebuild them as identity
            w = ctx.wall_vert
            if len(w):
                for row in layout.momentum + layout.turbulence:
                    total[w, row, :] = 0.0
                    total[w, row, row] = 1.0
            out[p] = total
        return out

    def _line_structures(self, dom, q) -> tuple:
        """Per-step frozen line-implicit structures (fig. 6b: lines are
        never split, so these stay rank-local).  The per-edge Jacobians
        and the edge lookup are computed once and shared by every batch.
        """
        batches = batch_lines_by_length(dom.ctx.lines)
        offdiags = edge_offdiagonals(dom.ctx, q) if batches else None
        lookup = _edge_lookup(dom.ctx) if batches else None
        blocks = {
            length: line_offdiag_blocks(
                dom.ctx, q, batch, offdiags=offdiags, lookup=lookup
            )
            for length, batch in batches.items()
        }
        on_line = np.zeros(dom.nlocal, dtype=bool)
        for batch in batches.values():
            on_line[batch.ravel()] = True
        return batches, blocks, on_line

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
    layout, physics flags and ``kernel_config`` carry over: turbulent
    (SA, 6-variable) solvers decompose exactly like laminar ones — wall
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
    kernels = NSU3DKernels(
        solver.qinf, kernel_config=solver.kernel_config,
        turbulence=solver.turbulence,
    )
    return DistributedSolveDriver(
        build_domain_hierarchy(specs, solver.maps, part), kernels,
        solver.qinf, config=config,
    )
