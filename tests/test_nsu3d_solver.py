"""Tests for the NSU3D-style RANS solver."""

import numpy as np
import pytest

from repro.comm import SimMPI
from repro.mesh.unstructured import build_dual, bump_channel, extract_lines
from repro.solvers.gas import freestream
from repro.runtime import (
    LevelSpec,
    MetisLinePartitioner,
    build_domain_hierarchy,
    make_exchanger,
)
from repro.solvers.nsu3d import (
    NSU3DSolver,
    agglomerate,
    apply_wall_bc,
    build_hierarchy,
    coarsen_context,
    context_from_dual,
    green_gauss,
    residual,
    residual_norm,
    wall_distance,
)
from repro.kernels import get_engine
from repro.solvers.gas import variable_layout
from repro.solvers.nsu3d.jacobians import (
    boundary_spectral_radius,
    complete_diagonal,
    edge_diagonal,
    edge_radii,
    edge_spectral_radius,
    line_offdiagonals,
    sa_destruction_diagonal,
    viscous_edge_coefficient,
)
from repro.solvers.nsu3d.linesolve import FrozenOperator, block_thomas
from repro.solvers.nsu3d.parallel import (
    NSU3DKernels,
    _local_flow_context,
    make_parallel_nsu3d,
)


@pytest.fixture(scope="module")
def small_mesh():
    return bump_channel(ni=10, nj=5, nk=8, wall_spacing=5e-3, ratio=1.3,
                        bump_height=0.03)


@pytest.fixture(scope="module")
def small_ctx(small_mesh):
    dual = build_dual(small_mesh)
    return context_from_dual(dual, mu_lam=1e-5, lines=extract_lines(dual))


class TestWallDistance:
    def test_zero_at_wall(self, small_ctx):
        w = small_ctx.wall_vert
        assert small_ctx.dist[w].max() < 1e-6

    def test_positive_away(self, small_ctx):
        interior = np.setdiff1d(np.arange(small_ctx.npoints), small_ctx.wall_vert)
        assert small_ctx.dist[interior].min() > 0

    def test_monotone_with_height_on_flat_plate(self):
        mesh = bump_channel(ni=4, nj=3, nk=8, bump_height=0.0)
        dual = build_dual(mesh)
        d = wall_distance(dual)
        # distance approximates z on a flat channel
        assert np.allclose(d, dual.points[:, 2], atol=1e-6)

    def test_requires_wall(self):
        mesh = bump_channel(ni=3, nj=3, nk=3)
        dual = build_dual(mesh)
        object.__setattr__(dual, "patch_kinds", ("symmetry",) * 6)
        with pytest.raises(ValueError):
            wall_distance(dual)


class TestGradients:
    def test_green_gauss_accurate_for_linear(self, small_ctx):
        """Median-dual Green-Gauss uses edge-midpoint face values, so it
        is first-order exact up to face-centroid offsets: errors must be
        tiny in the regular interior and bounded everywhere."""
        dual = small_ctx.dual
        coeffs = np.array([1.5, -2.0, 0.7])
        f = dual.points @ coeffs
        grad = green_gauss(dual, f)
        err = np.abs(grad[:, :, 0] - coeffs[None, :])
        assert np.median(err) < 1e-4
        assert err.max() < 0.05

    def test_green_gauss_multifield(self, small_ctx):
        dual = small_ctx.dual
        f = np.column_stack([dual.points[:, 0], dual.points[:, 2] * 2.0])
        grad = green_gauss(dual, f)
        assert np.median(np.abs(grad[:, 0, 0] - 1.0)) < 5e-3
        assert np.median(np.abs(grad[:, 2, 1] - 2.0)) < 5e-3

    def test_green_gauss_constant_is_exactly_zero(self, small_ctx):
        """Dual closure makes constant-field gradients machine zero."""
        dual = small_ctx.dual
        grad = green_gauss(dual, np.full(dual.npoints, 3.7))
        assert np.abs(grad).max() < 1e-12


class TestResidual:
    def test_freestream_slip_exact(self):
        """Uniform flow in a flat channel with slip walls is steady."""
        mesh = bump_channel(ni=6, nj=4, nk=5, bump_height=0.0,
                            wall_spacing=0.05, ratio=1.2)
        dual = build_dual(mesh)
        ctx = context_from_dual(dual, mu_lam=0.0, lines=[])
        ctx.sym_vert = np.concatenate([ctx.sym_vert, ctx.wall_vert])
        ctx.sym_normal = np.vstack([ctx.sym_normal, ctx.wall_normal])
        ctx.wall_vert = np.empty(0, dtype=np.int64)
        ctx.wall_normal = np.empty((0, 3))
        qinf = freestream(0.5, nvar=5)
        q = np.tile(qinf, (ctx.npoints, 1))
        r = residual(ctx, q, qinf, turbulence=False, viscous=False)
        assert np.abs(r).max() < 1e-11

    def test_wall_rows_masked(self, small_ctx):
        qinf = freestream(0.5, nvar=6, nu_lam=small_ctx.mu_lam)
        q = apply_wall_bc(small_ctx, np.tile(qinf, (small_ctx.npoints, 1)))
        r = residual(small_ctx, q, qinf)
        assert np.abs(r[small_ctx.wall_vert, 1:4]).max() == 0.0
        assert np.abs(r[small_ctx.wall_vert, 5]).max() == 0.0

    def test_wall_bc_pins_momentum(self, small_ctx):
        qinf = freestream(0.5, nvar=6, nu_lam=small_ctx.mu_lam)
        q = apply_wall_bc(small_ctx, np.tile(qinf, (small_ctx.npoints, 1)))
        assert np.abs(q[small_ctx.wall_vert, 1:4]).max() == 0.0
        from repro.solvers.gas import pressure

        # pressure preserved by the energy adjustment
        assert pressure(q[small_ctx.wall_vert]) == pytest.approx(
            pressure(qinf[None, :])[0]
        )


class TestBlockThomas:
    @pytest.mark.parametrize("m,k", [(2, 3), (5, 6), (9, 2)])
    def test_matches_dense_solve(self, m, k):
        rng = np.random.default_rng(7)
        L = 3
        diag = rng.normal(size=(L, m, k, k)) + 4.0 * np.eye(k)
        lower = 0.3 * rng.normal(size=(L, m - 1, k, k))
        upper = 0.3 * rng.normal(size=(L, m - 1, k, k))
        rhs = rng.normal(size=(L, m, k))
        out = block_thomas(lower, diag, upper, rhs)
        for l in range(L):
            big = np.zeros((m * k, m * k))
            for i in range(m):
                big[i * k:(i + 1) * k, i * k:(i + 1) * k] = diag[l, i]
                if i + 1 < m:
                    big[i * k:(i + 1) * k, (i + 1) * k:(i + 2) * k] = upper[l, i]
                    big[(i + 1) * k:(i + 2) * k, i * k:(i + 1) * k] = lower[l, i]
            exact = np.linalg.solve(big, rhs[l].ravel()).reshape(m, k)
            assert np.allclose(out[l], exact, atol=1e-9)

    def test_single_station(self):
        diag = np.array([[np.eye(2) * 2.0]])
        rhs = np.array([[[4.0, 6.0]]])
        out = block_thomas(
            np.empty((1, 0, 2, 2)), diag, np.empty((1, 0, 2, 2)), rhs
        )
        assert np.allclose(out[0, 0], [2.0, 3.0])


# -- the edge-form operator assembly this PR replaced, kept as oracles ----------
#
# Bodies of ``jacobians.local_time_step`` / ``spectral_sum`` /
# ``assemble_diagonal`` / ``edge_offdiagonals`` at PR 20, verbatim apart
# from spelling out ``ctx.jacobian_scatters`` (the context no longer
# keeps those two operators).


def _ref_local_time_step(ctx, q, cfl):
    engine = get_engine()
    acc = np.zeros(ctx.npoints, dtype=np.float64)
    engine.scatter_add(
        acc, ctx.edge_scatter_unsigned,
        edge_spectral_radius(ctx, q) + 2 * viscous_edge_coefficient(ctx, q),
    )
    engine.scatter_add(
        acc, ctx.boundary.scatter, boundary_spectral_radius(ctx, q)
    )
    return cfl * ctx.volumes / np.maximum(acc, 1e-300)


def _ref_assemble_diagonal(ctx, q, dt, sa_destruction=True):
    nvar = q.shape[1]
    layout = variable_layout(nvar)
    n = ctx.npoints
    eye = np.eye(nvar)
    diag = (ctx.volumes / dt)[:, None, None] * eye[None, :, :]

    a = ctx.edges[:, 0]
    b = ctx.edges[:, 1]
    lam = edge_spectral_radius(ctx, q)
    kv = viscous_edge_coefficient(ctx, q)
    scal = 0.5 * lam + kv  # identity part, both endpoints

    engine = get_engine()
    scal_acc = np.zeros(n, dtype=np.float64)
    engine.scatter_add(scal_acc, ctx.edge_scatter_unsigned, scal)
    ja, jb = engine.edge_jacobians(q[a], q[b], ctx.face_vectors)
    half_a = ctx.edge_scatter.reweighted(0.5, None)
    minus_half_b = ctx.edge_scatter.reweighted(None, -0.5)
    engine.scatter_add(diag, half_a, ja)
    engine.scatter_add(diag, minus_half_b, jb)
    diag += scal_acc[:, None, None] * eye[None, :, :]

    # boundary spectral radii keep the diagonal dominant at boundaries
    lam_b = boundary_spectral_radius(ctx, q)
    engine.scatter_add(
        diag, ctx.boundary.scatter,
        0.5 * lam_b[:, None, None] * eye[None, :, :],
    )

    # SA destruction linearization (adds to the diagonal only)
    if layout.turbulence and sa_destruction:
        dest = sa_destruction_diagonal(ctx, q)
        for j, var in enumerate(layout.turbulence):
            diag[:, var, var] += dest[:, j]

    # strong wall rows -> identity
    w = ctx.wall_vert
    if len(w):
        for row in layout.momentum + layout.turbulence:
            diag[w, row, :] = 0.0
            diag[w, row, row] = 1.0
    return diag


def _ref_edge_offdiagonals(ctx, q):
    nvar = q.shape[1]
    a = ctx.edges[:, 0]
    b = ctx.edges[:, 1]
    lam = edge_spectral_radius(ctx, q)
    kv = viscous_edge_coefficient(ctx, q)
    eye = np.eye(nvar)[None, :, :]
    ja, jb = get_engine().edge_jacobians(q[a], q[b], ctx.face_vectors)
    scal = (0.5 * lam + kv)[:, None, None] * eye
    off_ab = 0.5 * jb - scal
    off_ba = -0.5 * ja - scal
    return off_ab, off_ba


def perturbed(ctx, qinf, seed):
    rng = np.random.default_rng(seed)
    return apply_wall_bc(ctx, np.tile(qinf, (ctx.npoints, 1)) * (
        1.0 + 0.05 * rng.random((ctx.npoints, len(qinf)))
    ))


def face_scale(ctx):
    """Largest ``|S|`` at each vertex: what a block entry is a sum of
    terms of, so what its rounding error scales with."""
    scale = np.zeros(ctx.npoints)
    np.maximum.at(scale, ctx.edges[:, 0], ctx.edge_area)
    np.maximum.at(scale, ctx.edges[:, 1], ctx.edge_area)
    np.maximum.at(scale, ctx.boundary.vert, ctx.boundary.normals.area)
    return scale[:, None, None]


@pytest.fixture(scope="module", params=[True, False],
                ids=["turbulent", "laminar"])
def mg_solver(request, small_mesh):
    return NSU3DSolver(mesh=small_mesh, mach=0.5, mg_levels=3,
                       turbulence=request.param, cfl=8.0)


class TestFrozenOperatorOracles:
    """The shared builder against the edge-form assembly it replaced."""

    def test_time_step_is_bit_equal(self, mg_solver):
        for level, ctx in enumerate(mg_solver.contexts):
            q = perturbed(ctx, mg_solver.qinf, level)
            assert np.array_equal(
                FrozenOperator(ctx, q, 7.5).dt,
                _ref_local_time_step(ctx, q, 7.5),
            )

    def test_closed_dual_diagonal_matches_the_edge_sum(self, mg_solver):
        """``sum(+-1/2 A(q_a).S_e) = A(q_a).(1/2 sum +-S_e)`` to
        rounding, on every level."""
        for level, ctx in enumerate(mg_solver.contexts):
            q = perturbed(ctx, mg_solver.qinf, level)
            dt = _ref_local_time_step(ctx, q, 7.5)
            new = complete_diagonal(
                ctx, q, edge_diagonal(ctx, q, edge_radii(ctx, q)), dt
            )
            ref = _ref_assemble_diagonal(ctx, q, dt)
            # V/dt is a sum of the same |S|-sized radii, so one scale
            assert (np.abs(new - ref) <= 1e-12 * face_scale(ctx)).all()

    def test_rank_local_diagonals_sum_to_the_serial_one(self, mg_solver):
        """The half face sum of a rank-local context is a partial one;
        ``A.S`` is linear in ``S``, so the owner sum of the partial
        closed-form blocks, completed, is the serial block."""
        par = make_parallel_nsu3d(mg_solver, 4)
        for level, ctx in enumerate(mg_solver.contexts):
            q = perturbed(ctx, mg_solver.qinf, level)
            total = np.zeros((ctx.npoints, q.shape[1], q.shape[1]))
            for dom in par.hierarchy.levels[level].domains:
                l2g = dom.halo.local_to_global()
                local = edge_diagonal(
                    dom.ctx, q[l2g], edge_radii(dom.ctx, q[l2g])
                )
                np.add.at(total, l2g, local)
            dt = _ref_local_time_step(ctx, q, 7.5)
            new = complete_diagonal(ctx, q, total, dt)
            ref = _ref_assemble_diagonal(ctx, q, dt)
            assert (np.abs(new - ref) <= 1e-12 * face_scale(ctx)).all()

    def test_line_couplings_are_the_edge_blocks_at_line_edges(
            self, mg_solver):
        ctx = mg_solver.contexts[0]
        lines = ctx.line_structure
        assert lines.batches and 0 < len(lines.edge) < ctx.nedges
        q = perturbed(ctx, mg_solver.qinf, 5)
        lower, upper = line_offdiagonals(ctx, q, edge_radii(ctx, q))
        off_ab, off_ba = _ref_edge_offdiagonals(ctx, q)
        fwd = lines.forward[:, None, None]
        e = lines.edge
        assert np.allclose(upper, np.where(fwd, off_ab[e], off_ba[e]),
                           rtol=1e-13, atol=1e-15)
        assert np.allclose(lower, np.where(fwd, off_ba[e], off_ab[e]),
                           rtol=1e-13, atol=1e-15)
        # every link is a real edge joining consecutive line vertices
        for batch, links in zip(lines.batches, lines.per_batch(e)):
            ends = np.sort(ctx.edges[links], axis=-1)
            pairs = np.sort(np.stack([batch[:, :-1], batch[:, 1:]], -1), -1)
            assert np.array_equal(ends, pairs)
        covered = np.concatenate([b.ravel() for b in lines.batches])
        assert np.array_equal(
            np.sort(np.concatenate([covered, lines.rest])),
            np.arange(ctx.npoints),
        )

    def test_frozen_solve_inverts_the_edge_form_operator(self, mg_solver):
        """``solve`` applied to ``P q`` (diagonal + along-line couplings
        of the oracle assembly) gives ``q`` back."""
        ctx = mg_solver.contexts[0]
        q = perturbed(ctx, mg_solver.qinf, 9)
        op = FrozenOperator(ctx, q, 7.5)
        diag = _ref_assemble_diagonal(ctx, q, op.dt)
        off_ab, off_ba = _ref_edge_offdiagonals(ctx, q)
        x = np.random.default_rng(1).standard_normal(q.shape)
        px = np.einsum("nab,nb->na", diag, x)
        lines = ctx.line_structure
        for e, fwd in zip(lines.edge, lines.forward):
            a, b = ctx.edges[e] if fwd else ctx.edges[e][::-1]
            up, lo = (off_ab[e], off_ba[e]) if fwd else (off_ba[e], off_ab[e])
            px[a] += up @ x[b]
            px[b] += lo @ x[a]
        assert np.allclose(op.solve(px), x, rtol=1e-9, atol=1e-9)


class TestAgglomeration:
    def test_clusters_cover_all(self, small_ctx):
        cluster = agglomerate(small_ctx)
        assert len(cluster) == small_ctx.npoints
        assert cluster.min() == 0
        assert len(np.unique(cluster)) == cluster.max() + 1

    def test_coarse_volume_conserved(self, small_ctx):
        cluster = agglomerate(small_ctx)
        coarse = coarsen_context(small_ctx, cluster)
        assert coarse.volumes.sum() == pytest.approx(small_ctx.volumes.sum())

    def test_coarse_boundary_area_conserved(self, small_ctx):
        cluster = agglomerate(small_ctx)
        coarse = coarsen_context(small_ctx, cluster)
        fine_wall = small_ctx.wall_normal.sum(axis=0)
        coarse_wall = coarse.wall_normal.sum(axis=0)
        assert np.allclose(fine_wall, coarse_wall)

    def test_constant_state_zero_residual_on_coarse(self):
        """Telescoping metrics: on a flat channel, a constant (slip)
        state has zero coarse residual, exactly like on the fine grid."""
        mesh = bump_channel(ni=6, nj=4, nk=5, bump_height=0.0,
                            wall_spacing=0.05, ratio=1.2)
        flat_ctx = context_from_dual(build_dual(mesh), mu_lam=0.0, lines=[])
        cluster = agglomerate(flat_ctx)
        coarse = coarsen_context(flat_ctx, cluster)
        # slip the wall (keep the farfield: it carries the through-flow)
        coarse.sym_vert = np.concatenate([coarse.sym_vert, coarse.wall_vert])
        coarse.sym_normal = np.vstack([coarse.sym_normal, coarse.wall_normal])
        coarse.wall_vert = np.empty(0, dtype=np.int64)
        coarse.wall_normal = np.empty((0, 3))
        qinf = freestream(0.5, nvar=5)
        q = np.tile(qinf, (coarse.npoints, 1))
        r = residual(coarse, q, qinf, turbulence=False, viscous=False)
        assert np.abs(r).max() < 1e-11

    def test_hierarchy_sizes_decrease(self, small_ctx):
        contexts, maps = build_hierarchy(small_ctx, 4)
        sizes = [c.npoints for c in contexts]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))
        assert len(maps) == len(contexts) - 1


class TestSolver:
    def test_laminar_converges(self, small_mesh):
        s = NSU3DSolver(mesh=small_mesh, mach=0.5, reynolds=1e4,
                        mg_levels=3, turbulence=False, cfl=10.0)
        s.solve(ncycles=30, tol_orders=2.0)
        assert s.history.orders_converged() >= 1.5

    def test_turbulent_runs_stably(self, small_mesh):
        s = NSU3DSolver(mesh=small_mesh, mach=0.5, reynolds=1e5,
                        mg_levels=3, turbulence=True, cfl=8.0)
        rs = [s.run_cycle() for _ in range(20)]
        assert all(np.isfinite(rs))
        assert rs[-1] < rs[0]

    def test_more_levels_converge_faster(self, small_mesh):
        """The fig. 14(a) property, at test scale."""
        res = {}
        for mg in (1, 3):
            s = NSU3DSolver(mesh=small_mesh, mach=0.5, reynolds=1e4,
                            mg_levels=mg, turbulence=False, cfl=10.0)
            for _ in range(25):
                s.run_cycle()
            res[mg] = s.history.residuals[-1]
        assert res[3] < res[1]

    def test_six_dof_per_point(self, small_mesh):
        s = NSU3DSolver(mesh=small_mesh, turbulence=True, mg_levels=1)
        assert s.ndof == 6 * s.size

    def test_forces_finite(self, small_mesh):
        s = NSU3DSolver(mesh=small_mesh, mach=0.5, reynolds=1e4,
                        mg_levels=2, turbulence=False, cfl=10.0)
        for _ in range(10):
            s.run_cycle()
        f = s.forces()
        assert np.isfinite([f["cl"], f["cd"]]).all()

    def test_requires_mesh_or_dual(self):
        with pytest.raises(ValueError):
            NSU3DSolver()


def line_partition(ctx, nparts):
    return MetisLinePartitioner(
        ctx.npoints, ctx.edges, lines=ctx.lines, seed=0
    ).partition(nparts)


class TestParallelNSU3D:
    def test_residual_matches_serial(self, small_ctx):
        qinf = freestream(0.5, nvar=5)
        rng = np.random.default_rng(0)
        q = apply_wall_bc(
            small_ctx,
            np.tile(qinf, (small_ctx.npoints, 1))
            * (1 + 0.01 * rng.standard_normal((small_ctx.npoints, 5))),
        )
        r_serial = residual(small_ctx, q, qinf, turbulence=False)
        spec = LevelSpec(
            nvert=small_ctx.npoints, edges=small_ctx.edges,
            payload=lambda h, p: _local_flow_context(small_ctx, h, p),
        )
        domains = build_domain_hierarchy(
            [spec], [], line_partition(small_ctx, 4)
        ).levels[0].domains
        kernels = NSU3DKernels(qinf)

        def body(comm):
            pid = comm.rank
            dom = domains[pid]
            X = make_exchanger("plan", comm, plans={pid: dom.halo.plan})
            l2g = dom.halo.local_to_global()
            r = kernels.defect(X, {pid: dom}, {pid: q[l2g].copy()})[pid]
            return dom.halo.owned_global, r[: dom.nowned]

        out = SimMPI(4).run(body)
        r_par = np.empty_like(r_serial)
        for gids, r_own in out:
            r_par[gids] = r_own
        assert np.allclose(r_par, r_serial, atol=1e-13)

    def test_lines_never_split(self, small_ctx):
        part = line_partition(small_ctx, 4)
        for line in small_ctx.lines:
            assert len(np.unique(part[line])) == 1
