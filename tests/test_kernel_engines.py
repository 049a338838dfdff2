"""Tests for the kernel layer.

The contract under test: each primitive of the one engine agrees with
its oracle (``np.add.at``, a dense solve, the recursion ``ThomasFactor``
replaced, the Euler flux), prebuilt scatter operators are bit-identical
to ``np.add.at``, no cycle reaches a raw ``ufunc.at``, and a proxy
assigned to ``solver.engine`` / ``par.kernels.engine`` sees every hot
call of a cycle without moving a bit of its result.
"""

import cProfile
import gc
import pickle
import pstats
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.kernels import (
    KernelEngine,
    NumpyEngine,
    ScatterOperator,
    get_engine,
    incidence,
    use_engine,
)
from repro.kernels.numpy_engine import PrefactoredDiagonal
from repro.mesh.cartesian import Sphere
from repro.mesh.unstructured import bump_channel
from repro.runtime import DistributedDomain
from repro.runtime.process import WorkerSpec
from repro.solvers.fluxes import euler_flux
from repro.solvers.gas import variable_layout
from repro.solvers.nsu3d.residual import flux_residual
from repro.solvers.nsu3d.parallel import _stack

ORACLE = dict(rtol=1e-12, atol=1e-12)


def random_state(n, nvar=5, seed=0):
    """A physical random state: positive density/energy, small velocity."""
    rng = np.random.default_rng(seed)
    q = np.empty((n, nvar), dtype=np.float64)
    q[:, 0] = 1.0 + 0.1 * rng.random(n)
    q[:, 1:4] = 0.2 * rng.standard_normal((n, 3))
    q[:, 4] = 2.5 + 0.2 * rng.random(n)
    if nvar > 5:
        q[:, 5:] = 0.1 * rng.random((n, nvar - 5))
    return q


class TestPrimitiveParity:
    """Each protocol primitive against its oracle."""

    def setup_method(self):
        self.engine = get_engine()
        self.rng = np.random.default_rng(7)

    def test_scatter_add(self):
        for shape in [(30,), (30, 5), (30, 3)]:
            out = np.zeros(shape, dtype=np.float64)
            expect = np.zeros(shape, dtype=np.float64)
            idx = self.rng.integers(0, 30, size=100)
            contrib = self.rng.standard_normal((100,) + shape[1:])
            self.engine.scatter_add(out, idx, contrib)
            np.add.at(expect, idx, contrib)
            assert np.array_equal(out, expect)

    def test_scatter_add_scalar_contrib(self):
        out = np.zeros(10, dtype=np.float64)
        idx = self.rng.integers(0, 10, size=40)
        self.engine.scatter_add(out, idx, 1.0)
        assert np.array_equal(out, np.bincount(idx, minlength=10))

    def test_scatter_add_empty(self):
        out = np.zeros((4, 5), dtype=np.float64)
        idx = np.zeros(0, dtype=np.int64)
        self.engine.scatter_add(out, idx, np.zeros((0, 5)))
        assert not out.any()

    def test_jacobians(self):
        """The Euler flux is homogeneous of degree one in ``q``, so its
        Jacobian times the state is the flux itself (the SA row
        advects passively); the edge pair is two such blocks."""
        q = random_state(40, nvar=6)
        normal = 0.5 * self.rng.standard_normal((40, 3))
        area = np.linalg.norm(normal, axis=1)
        flux = area[:, None] * euler_flux(q, normal / area[:, None])
        a = self.engine.euler_jacobian(q, normal)
        assert np.allclose(np.einsum("nab,nb->na", a, q), flux, **ORACLE)
        qb = random_state(40, nvar=6, seed=2)
        ja, jb = self.engine.edge_jacobians(q, qb, normal)
        assert np.array_equal(ja, a)
        assert np.array_equal(jb, self.engine.euler_jacobian(qb, normal))

    def test_block_solve_and_factor(self):
        n, k = 25, 5
        diag = self.rng.standard_normal((n, k, k))
        diag += 5.0 * np.eye(k)  # diagonally dominant, well-conditioned
        rhs = self.rng.standard_normal((n, k))
        ref = self.engine.block_solve(diag, rhs)
        assert np.allclose(np.einsum("nab,nb->na", diag, ref), rhs, **ORACLE)
        assert np.allclose(
            self.engine.block_factor(diag).solve(rhs), ref, **ORACLE
        )

    def test_thomas_mixed_length_groups(self):
        systems = [
            (*drawn_line_group(L, m, 5, seed),
             self.rng.standard_normal((L, m, 5)))
            for seed, (L, m) in enumerate([(3, 4), (2, 7), (6, 2)])
        ]
        out = self.engine.thomas(systems)
        assert len(out) == len(systems)
        for solution, system in zip(out, systems):
            assert np.allclose(solution, _ref_block_thomas(*system), **ORACLE)

    def test_rk_update_is_bitwise(self):
        q0 = random_state(50)
        r = self.rng.standard_normal((50, 5))
        scale = self.rng.random(50)
        assert np.array_equal(self.engine.rk_update(q0, scale, r),
                              q0 - scale[:, None] * r)


def _ref_block_thomas(lower, diag, upper, rhs):
    """The recursion the engine ran before ``thomas_factor`` existed
    (``kernels/numpy_engine.py::block_thomas`` at PR 20, verbatim): one
    ``np.linalg.solve`` per station per right-hand side."""
    L, m, k, _ = diag.shape
    cprime = np.empty((L, max(m - 1, 0), k, k), dtype=np.float64)
    dprime = np.empty((L, m, k), dtype=np.float64)
    dmat = diag[:, 0]
    if m > 1:
        cprime[:, 0] = np.linalg.solve(dmat, upper[:, 0])
    dprime[:, 0] = np.linalg.solve(dmat, rhs[:, 0][..., None])[..., 0]
    for i in range(1, m):
        dmat = diag[:, i] - np.einsum(
            "lab,lbc->lac", lower[:, i - 1], cprime[:, i - 1]
        )
        if i < m - 1:
            cprime[:, i] = np.linalg.solve(dmat, upper[:, i])
        rhs_i = rhs[:, i] - np.einsum(
            "lab,lb->la", lower[:, i - 1], dprime[:, i - 1]
        )
        dprime[:, i] = np.linalg.solve(dmat, rhs_i[..., None])[..., 0]
    out = np.empty((L, m, k), dtype=np.float64)
    out[:, m - 1] = dprime[:, m - 1]
    for i in range(m - 2, -1, -1):
        out[:, i] = dprime[:, i] - np.einsum(
            "lab,lb->la", cprime[:, i], out[:, i + 1]
        )
    return out


def _dense_tridiagonal_solve(lower, diag, upper, rhs):
    """Each line's block-tridiagonal system assembled densely."""
    L, m, k, _ = diag.shape
    out = np.empty((L, m, k))
    for l in range(L):
        big = np.zeros((m * k, m * k))
        for i in range(m):
            rows = slice(i * k, (i + 1) * k)
            big[rows, rows] = diag[l, i]
            if i + 1 < m:
                nxt = slice((i + 1) * k, (i + 2) * k)
                big[rows, nxt] = upper[l, i]
                big[nxt, rows] = lower[l, i]
        out[l] = np.linalg.solve(big, rhs[l].ravel()).reshape(m, k)
    return out


def drawn_line_group(L, m, k, seed):
    """A diagonally dominant block-tridiagonal group, like a frozen
    implicit operator's (``V/dt`` + spectral radii on the diagonal)."""
    rng = np.random.default_rng(seed)
    diag = rng.standard_normal((L, m, k, k)) + 8.0 * np.eye(k)
    lower = 0.5 * rng.standard_normal((L, m - 1, k, k))
    upper = 0.5 * rng.standard_normal((L, m - 1, k, k))
    return lower, diag, upper


class TestThomasFactor:
    """``thomas_factor`` eliminates a line group once; its ``solve`` is
    only the right-hand-side sweeps.  The oracles are the recursion it
    replaced and a dense solve."""

    @settings(max_examples=60, deadline=None)
    @given(
        L=st.integers(0, 7), m=st.integers(1, 12),
        k=st.sampled_from([5, 6]), seed=st.integers(0, 2**16),
    )
    def test_matches_the_old_recursion_and_a_dense_solve(self, L, m, k, seed):
        lower, diag, upper = drawn_line_group(L, m, k, seed)
        rhs = np.random.default_rng(seed + 1).standard_normal((L, m, k))
        out = get_engine().thomas_factor(lower, diag, upper).solve(rhs)
        assert out.shape == (L, m, k)
        assert np.allclose(out, _ref_block_thomas(lower, diag, upper, rhs),
                           **ORACLE)
        assert np.allclose(
            out, _dense_tridiagonal_solve(lower, diag, upper, rhs), **ORACLE
        )

    @settings(max_examples=30, deadline=None)
    @given(
        L=st.integers(1, 6), m=st.integers(1, 12),
        k=st.sampled_from([5, 6]), seed=st.integers(0, 2**16),
    )
    def test_one_factor_serves_every_stage(self, L, m, k, seed):
        """Three right-hand sides through one factor — a smoothing
        step's three stages — equal three one-shot solves exactly, and
        leave the factor and the inputs untouched."""
        eng = get_engine()
        lower, diag, upper = drawn_line_group(L, m, k, seed)
        kept = [a.copy() for a in (lower, diag, upper)]
        factor = eng.thomas_factor(lower, diag, upper)
        rng = np.random.default_rng(seed + 1)
        stages = [rng.standard_normal((L, m, k)) for _ in range(3)]
        reused = [factor.solve(rhs) for rhs in stages]
        for rhs, out in zip(stages, reused):
            (fresh,) = eng.thomas([(lower, diag, upper, rhs)])
            assert np.array_equal(out, fresh)
        assert all(np.array_equal(a, b)
                   for a, b in zip(kept, (lower, diag, upper)))

    def test_single_station_and_empty_groups(self):
        eng = get_engine()
        none = np.empty((2, 0, 5, 5))
        diag = 2.0 * np.tile(np.eye(5), (2, 1, 1, 1))
        out = eng.thomas_factor(none, diag, none).solve(np.ones((2, 1, 5)))
        assert np.array_equal(out, np.full((2, 1, 5), 0.5))
        for m in (1, 4):
            lower, diag, upper = drawn_line_group(0, m, 6, 0)
            out = eng.thomas_factor(lower, diag, upper).solve(
                np.empty((0, m, 6))
            )
            assert out.shape == (0, m, 6)
        assert eng.thomas([]) == []

    def test_block_factor_is_one_implementation(self):
        """Frozen point blocks are inverted once, by the one
        ``PrefactoredDiagonal``, and agree with a dense solve."""
        rng = np.random.default_rng(3)
        diag = rng.standard_normal((9, 6, 6)) + 6.0 * np.eye(6)
        rhs = rng.standard_normal((9, 6))
        factor = get_engine().block_factor(diag)
        assert type(factor) is PrefactoredDiagonal
        assert np.allclose(factor.solve(rhs),
                           np.linalg.solve(diag, rhs[:, :, None])[:, :, 0],
                           **ORACLE)


#: trailing shapes a contribution can have: scalar rows, state vectors,
#: Jacobian blocks
TAILS = [(), (1,), (5,), (6,), (3, 4), (6, 6)]


class TestScatterOperator:
    """A prebuilt operator is the same accumulation as ``np.add.at`` on
    its index arrays — same additions, same order, so bit-identical."""

    @settings(max_examples=150, deadline=None)
    @given(
        nrows=st.integers(1, 12),
        ncols=st.integers(0, 40),
        nterms=st.integers(1, 3),
        tail=st.sampled_from(TAILS),
        scalar=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_equals_add_at(self, nrows, ncols, nterms, tail, scalar, seed):
        rng = np.random.default_rng(seed)
        # few rows, many contributions: repeats are the common case
        terms = [
            (rng.integers(0, nrows, size=ncols),
             float(rng.choice([1.0, -1.0, 0.5, -0.5])))
            for _ in range(nterms)
        ]
        contrib = (
            float(rng.normal()) if scalar
            else rng.normal(size=(ncols,) + tail)
        )
        start = rng.normal(size=(nrows,) + tail)
        expect = start.copy()
        for idx, weight in terms:
            np.add.at(expect, idx, weight * contrib)
        out = start.copy()
        get_engine().scatter_add(out, incidence(nrows, *terms), contrib)
        assert np.array_equal(out, expect)

    @pytest.mark.parametrize("engine", [get_engine()], ids=["numpy"])
    def test_index_arrays_still_work(self, engine):
        """Ad-hoc index sets keep the engine's own scatter, which adds
        what a prebuilt operator over the same indices adds."""
        rng = np.random.default_rng(3)
        idx = rng.integers(0, 7, size=50)
        contrib = rng.normal(size=(50, 5))
        expect = np.zeros((7, 5))
        np.add.at(expect, idx, contrib)
        out, via_operator = np.zeros((7, 5)), np.zeros((7, 5))
        engine.scatter_add(out, idx, contrib)
        engine.scatter_add(via_operator, incidence(7, (idx, 1.0)), contrib)
        assert np.array_equal(out, expect)
        assert np.array_equal(via_operator, expect)

    def test_strided_or_narrow_output_goes_through_a_temporary(self):
        rng = np.random.default_rng(4)
        idx = rng.integers(0, 9, size=30)
        op = incidence(9, (idx, 1.0))
        contrib = rng.normal(size=30)
        wide = np.zeros((9, 2))
        op.add_to(wide[:, 0], contrib)  # a column view: not contiguous
        single = np.zeros(9, dtype=np.float32)
        op.add_to(single, contrib)
        expect = np.zeros(9)
        np.add.at(expect, idx, contrib)
        assert np.array_equal(wide[:, 0], expect)
        assert not wide[:, 1].any()
        assert np.allclose(single, expect, rtol=1e-6)

    def test_reweighted_twins_share_the_index_structures(self):
        a = np.array([0, 1, 1, 2])
        b = np.array([1, 2, 0, 0])
        signed = incidence(3, (a, 1.0), (b, -1.0))
        x = np.array([1.0, 10.0, 100.0, 1000.0])

        def apply(op):
            out = np.zeros(3)
            op.add_to(out, x)
            return list(out)

        assert apply(signed) == [-1099.0, 109.0, 990.0]
        twin = signed.reweighted(1.0, 1.0)
        assert apply(twin) == [1101.0, 111.0, 1010.0]
        first_half = signed.reweighted(0.5, None)
        assert apply(first_half) == [0.5, 55.0, 500.0]
        for derived in (twin, first_half):
            assert derived.terms[0].indices is signed.terms[0].indices
            assert derived.terms[0].indptr is signed.terms[0].indptr
        # 4 bytes per entry and per row: no per-entry weights
        assert signed.terms[0].indices.dtype == np.int32
        assert signed.nbytes == 2 * 4 * (len(a) + 3 + 1)
        with pytest.raises(ValueError):
            signed.reweighted(1.0)

    def test_pickle_keeps_weights_scalar(self):
        op = incidence(50, (np.arange(1000) % 50, -0.5))
        clone = pickle.loads(pickle.dumps(op))
        assert clone.terms[0].weight == -0.5
        assert len(pickle.dumps(op)) < 2 * op.nbytes
        x = np.random.default_rng(0).normal(size=(1000, 3))
        a, b = np.zeros((50, 3)), np.zeros((50, 3))
        op.add_to(a, x)
        clone.add_to(b, x)
        assert np.array_equal(a, b)

    def test_shape_and_range_are_checked(self):
        with pytest.raises(IndexError):
            incidence(3, (np.array([0, 3]), 1.0))
        with pytest.raises(ValueError):
            incidence(3, (np.array([0, 1]), 1.0), (np.array([0]), 1.0))
        with pytest.raises(ValueError):
            incidence(3, (np.array([0, 1]), 1.0)).add_to(np.zeros(4), 1.0)


@pytest.fixture(scope="module")
def nsu3d_mesh():
    return bump_channel(ni=8, nj=4, nk=6, wall_spacing=5e-3, ratio=1.3,
                        bump_height=0.03)


@pytest.fixture(scope="module")
def sphere():
    return Sphere(center=[0.5, 0.5, 0.5], radius=0.15)


def nsu3d_for(mesh):
    return api.make_nsu3d_solver(mesh=mesh, mach=0.5, mg_levels=2)


def cart3d_for(sphere):
    return api.make_cart3d_solver(
        sphere, dim=2, base_level=4, max_level=5, mg_levels=3, mach=0.4,
    )


class CountingEngine:
    """A proxy over an engine that counts the calls of each primitive."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = Counter()

    def __getattr__(self, name):
        attr = getattr(self.inner, name)
        if not callable(attr):
            return attr

        def call(*args, **kwargs):
            self.calls[name] += 1
            return attr(*args, **kwargs)

        return call


def hexed(values):
    return [float(v).hex() for v in values]


class TestMakeEngine:
    """The engine is made once: the ambient default is one
    ``NumpyEngine`` instance, and every solver and kernels adapter holds
    that same object."""

    def test_every_engine_satisfies_the_protocol(self):
        for engine in (get_engine(), CountingEngine(get_engine())):
            assert isinstance(engine, KernelEngine)

    def test_numpy_engine_is_the_shared_reference(self, nsu3d_mesh, sphere):
        engine = get_engine()
        solvers = [nsu3d_for(nsu3d_mesh), cart3d_for(sphere)]
        for solver in solvers:
            assert solver.engine is engine
        with api.make_parallel_nsu3d(solvers[0], 2) as par:
            assert par.kernels.engine is engine

    def test_ambient_default_is_reference(self):
        assert type(get_engine()) is NumpyEngine
        assert get_engine() is get_engine()


class TestAttachSeam:
    """``solver.engine`` and ``par.kernels.engine`` are where a probe
    attaches: whatever sits there sees the cycle's hot calls, and a
    proxy that only delegates moves no bit of the result."""

    def test_use_engine_nests_and_restores(self):
        plain = get_engine()
        outer, inner = CountingEngine(plain), CountingEngine(plain)
        with use_engine(outer) as active:
            assert active is outer and get_engine() is outer
            with use_engine(inner):
                assert get_engine() is inner
            assert get_engine() is outer
        assert get_engine() is plain

    @staticmethod
    def one_cycle(solver, proxy=None):
        if proxy is not None:
            solver.engine = proxy
        solver.run_cycle()
        return solver.q.tobytes(), hexed(solver.history.residuals)

    def test_serial_nsu3d(self, nsu3d_mesh):
        proxy = CountingEngine(get_engine())
        assert self.one_cycle(nsu3d_for(nsu3d_mesh), proxy) \
            == self.one_cycle(nsu3d_for(nsu3d_mesh))
        for prim in ("scatter_add", "edge_jacobians", "euler_jacobian",
                     "block_factor", "thomas_factor"):
            assert proxy.calls[prim] > 0, prim

    def test_serial_cart3d(self, sphere):
        proxy = CountingEngine(get_engine())
        assert self.one_cycle(cart3d_for(sphere), proxy) \
            == self.one_cycle(cart3d_for(sphere))
        assert proxy.calls["scatter_add"] > 0
        assert proxy.calls["rk_update"] > 0

    def test_sim_two_rank_nsu3d(self, nsu3d_mesh):
        solver = nsu3d_for(nsu3d_mesh)
        proxy = CountingEngine(get_engine())
        results = []
        for engine in (proxy, None):
            with api.make_parallel_nsu3d(solver, 2) as par:
                if engine is not None:
                    par.kernels.engine = engine
                q, hist = par.solve(1, cfl=8.0)
            results.append((q.tobytes(), hexed(hist)))
        assert results[0] == results[1]
        for prim in ("scatter_add", "edge_jacobians", "euler_jacobian",
                     "block_factor", "thomas_factor"):
            assert proxy.calls[prim] > 0, prim


class TestFreestreamPreservation:
    """A uniform state is a steady state of the discrete scheme: away
    from walls and slip planes (whose pressure-only flux is not the
    freestream flux) the residual vanishes on every level — serially,
    and when four partitions' partial sums are put back together."""

    @staticmethod
    def interior(ctx):
        mask = np.ones(ctx.npoints, dtype=bool)
        mask[ctx.wall_vert] = False
        mask[ctx.sym_vert] = False
        return mask

    @settings(max_examples=12, deadline=None)
    @given(
        mach=st.floats(0.2, 0.9),
        alpha=st.floats(-3.0, 3.0),
        turbulence=st.booleans(),
    )
    def test_every_level_serial_and_four_partitions(
        self, nsu3d_mesh, mach, alpha, turbulence
    ):
        solver = api.make_nsu3d_solver(
            mesh=nsu3d_mesh, mach=mach, alpha_deg=alpha, mg_levels=3,
            turbulence=turbulence,
        )
        qinf = solver.qinf
        par = api.make_parallel_nsu3d(solver, 4)
        assert len(solver.contexts) > 1
        for level, ctx in enumerate(solver.contexts):
            q = np.tile(qinf, (ctx.npoints, 1))
            # the flux terms only: the pointwise SA destruction term
            # is (nu/d)^2 of the state, not a flux balance
            r = flux_residual(ctx, q, qinf, turbulence=turbulence)
            inside = self.interior(ctx)
            assert inside.sum() > 0
            assert np.abs(r[inside]).max() <= 1e-13

            total = np.zeros_like(r)
            for dom in par.hierarchy.levels[level].domains:
                part = flux_residual(
                    dom.ctx, np.tile(qinf, (dom.nlocal, 1)), qinf,
                    turbulence=turbulence,
                )
                # wall rows are outside ``inside``
                np.add.at(total, dom.halo.local_to_global(), part)
            assert np.abs(total[inside]).max() <= 1e-13
        par.close()


class TestNoRawScatterOnTheCyclePath:
    """Lint R015 bans ``np.add.at`` statically; this is the dynamic
    side — the engine's ad-hoc fallback *is* ``np.add.at``, so
    a per-cycle site that still passes a bare index array would show up
    here as a ``ufunc.at`` call."""

    @staticmethod
    def calls_during_a_cycle(cycle):
        cycle()  # first cycle builds the lazy operators
        profile = cProfile.Profile()
        profile.enable()
        cycle()
        profile.disable()
        return {name for _file, _line, name in pstats.Stats(profile).stats}

    def test_serial_solvers(self, nsu3d_mesh, sphere):
        solvers = [
            nsu3d_for(nsu3d_mesh),
            api.make_nsu3d_solver(mesh=nsu3d_mesh, mach=0.5, mg_levels=2,
                                  turbulence=False, order2=True),
            cart3d_for(sphere),
            api.make_cart3d_solver(sphere, dim=2, base_level=4, max_level=5,
                                   mg_levels=3, mach=0.4, flux="roe",
                                   order2=True),
        ]
        for solver in solvers:
            names = self.calls_during_a_cycle(solver.run_cycle)
            assert any("csr_matvec" in name for name in names)
            assert not any("'at' of 'numpy.ufunc'" in name for name in names)

    def test_distributed_cycles(self, nsu3d_mesh, sphere):
        """The runtime's own scatter — restriction along the local
        agglomerate maps — rides a cached operator too."""
        for par, cfl in [
            (api.make_parallel_nsu3d(
                nsu3d_for(nsu3d_mesh), 4), 8.0),
            (api.make_parallel_cart3d(
                cart3d_for(sphere), 4), 2.0),
        ]:
            names = self.calls_during_a_cycle(
                lambda: par.solve(1, cfl=cfl)
            )
            assert any("csr_matvec" in name for name in names)
            assert not any("'at' of 'numpy.ufunc'" in name for name in names)


class TestOperatorLifetime:
    """Operators belong to the context that built them: no registry
    keeps them alive, and they travel with a pickled ``WorkerSpec``
    whether or not they have been built yet."""

    def test_released_with_the_context(self, nsu3d_mesh):
        solver = nsu3d_for(nsu3d_mesh)
        solver.run_cycle()
        ctx = solver.contexts[0]
        built = [ctx.edge_scatter, ctx.edge_scatter_unsigned,
                 ctx.far.scatter, ctx.boundary.scatter,
                 ctx.gradient_scatters[1],
                 ctx.restriction(solver.maps[0], solver.contexts[1].npoints)]
        assert all(isinstance(op, ScatterOperator) for op in built)
        refs = [weakref.ref(op) for op in built]
        del built, ctx, solver
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)

    def test_transfer_operator_released_with_the_solver(self, sphere):
        solver = cart3d_for(sphere)
        solver.run_cycle()
        refs = [weakref.ref(solver.levels[0].face_scatter),
                weakref.ref(solver.transfers[0].scatter)]
        del solver
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    @pytest.mark.parametrize("built", [False, True])
    def test_worker_spec_round_trips_through_pickle(self, nsu3d_mesh, built):
        solver = nsu3d_for(nsu3d_mesh)
        par = api.make_parallel_nsu3d(solver, 2)
        if built:
            par.solve(1, cfl=5.0)  # builds every operator the cycle uses
        hierarchy = par.hierarchy
        rank = 1
        spec = WorkerSpec(
            rank=rank, nranks=2,
            doms=[{rank: DistributedDomain(lvl.domains[rank].halo,
                                           lvl.domains[rank].ctx)}
                  for lvl in hierarchy.levels],
            cluster_local=[{rank: cl[rank]}
                           for cl in hierarchy.cluster_local],
            kernels=par.kernels, overlap=False, sanitize=False, timeout=5.0,
        )
        # a cycle's operators live on the stacked context of the
        # partitions the kernels were handed: the solve's spans both, a
        # worker builds its own over its share on first use
        whole = _stack(dict(enumerate(hierarchy.levels[0].domains))).ctx
        assert ("edge_scatter" in vars(whole)) == built
        fine = spec.doms[0]
        if built:
            _stack(fine).ctx.edge_scatter
        shipped = pickle.loads(pickle.dumps(spec))
        twin = shipped.doms[0]
        assert bool(twin[rank].cache) == built
        assert ("edge_scatter" in vars(_stack(twin).ctx)) == built
        fine, twin = _stack(fine).ctx, _stack(twin).ctx
        q = np.tile(solver.qinf, (fine.npoints, 1))
        q *= 1.0 + 0.01 * np.random.default_rng(0).random(q.shape)
        assert np.array_equal(
            flux_residual(twin, q, solver.qinf),
            flux_residual(fine, q, solver.qinf),
        )
        par.close()


class TestVariableLayout:
    def test_rans_layout(self):
        layout = variable_layout(6)
        assert layout.density == 0
        assert layout.momentum == (1, 2, 3)
        assert layout.energy == 4
        assert layout.turbulence == (5,)
        assert layout.limited == (0, 4)

    def test_euler_layout_has_no_turbulence(self):
        assert variable_layout(5).turbulence == ()

    def test_rejects_short_state(self):
        with pytest.raises(ValueError):
            variable_layout(4)

    def test_limit_correction_six_column_state(self):
        """The regression the layout refactor fixes: a 6-column state
        limits its turbulence column (index 5) by the bounded-growth
        rule, not by a hard-coded ``q.shape[1] > 5`` branch reading a
        fixed slot."""
        from repro.solvers.nsu3d.linesolve import limit_correction

        q = random_state(20, nvar=6, seed=3)
        dq = 1e-6 * np.random.default_rng(4).standard_normal((20, 6))
        out = limit_correction(q, dq)
        # tiny corrections pass through unscaled
        assert np.allclose(out, q + dq, rtol=0, atol=1e-18)
        # a violent density correction is scaled back
        dq_big = np.zeros_like(q)
        dq_big[:, 0] = 10.0 * q[:, 0]
        out = limit_correction(q, dq_big)
        assert (np.abs(out[:, 0] - q[:, 0]) <= 0.2 * np.abs(q[:, 0])
                + 1e-12).all()
        # a violent turbulence correction is bounded too (7-column
        # state: both extra columns are turbulence workers)
        q7 = random_state(20, nvar=7, seed=5)
        dq7 = np.zeros_like(q7)
        dq7[:, 6] = 1e6
        out7 = limit_correction(q7, dq7)
        assert np.isfinite(out7).all()
        assert (np.abs(out7[:, 6] - q7[:, 6]) < 1e6).all()
