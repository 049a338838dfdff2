"""Tests for the kernel-engine layer (PR 9).

The contract under test: engines are numerically interchangeable
(parity within 1e-10 across both solvers, serial and distributed), the
``KernelConfig`` surface validates like ``RuntimeConfig``, a decomposed
solve runs its serial solver's engine on every backend, and engine
selection never leaks into database cache keys.
"""

import cProfile
import gc
import pickle
import pstats
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.comm import SimMPI
from repro.errors import ConfigurationError
from repro.kernels import (
    DEFAULT_BLOCK_SIZE,
    ENGINES,
    BatchedEngine,
    KernelConfig,
    KernelEngine,
    NumpyEngine,
    ScatterOperator,
    get_engine,
    incidence,
    make_engine,
    use_engine,
)
from repro.mesh.cartesian import Sphere
from repro.mesh.unstructured import bump_channel
from repro.runtime import DistributedDomain, RuntimeConfig
from repro.runtime.process import WorkerSpec
from repro.solvers.gas import freestream, variable_layout
from repro.solvers.nsu3d import residual as nsu3d_residual
from repro.solvers.nsu3d.parallel import _stack

PARITY = dict(rtol=1e-10, atol=1e-13)

#: Full-solve state comparisons use the acceptance window from the
#: issue: agreement to 1e-10.  The SA working variable sits at ~1e-5
#: with absolute rounding noise ~1e-12 from O(1) intermediates, so the
#: window is absolute — primitives are still held to PARITY above.
SOLVER_PARITY = dict(rtol=1e-10, atol=1e-10)


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


class TestKernelConfig:
    def test_defaults(self):
        cfg = KernelConfig()
        assert cfg.engine == "numpy"
        assert cfg.resolved_block_size == DEFAULT_BLOCK_SIZE

    def test_engines_tuple(self):
        assert ENGINES == ("numpy", "batched")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown kernel engine"):
            KernelConfig(engine="fortran")

    def test_block_size_rejected_for_numpy(self):
        with pytest.raises(ConfigurationError, match="block_size"):
            KernelConfig(engine="numpy", block_size=32)

    def test_block_size_validated(self):
        with pytest.raises(ConfigurationError, match=">= 1"):
            KernelConfig(engine="batched", block_size=0)
        assert KernelConfig(
            engine="batched", block_size=16
        ).resolved_block_size == 16

    def test_config_is_hashable_and_picklable(self):
        import pickle

        cfg = KernelConfig(engine="batched", block_size=32)
        assert pickle.loads(pickle.dumps(cfg)) == cfg
        assert hash(cfg) == hash(KernelConfig(engine="batched", block_size=32))


class TestMakeEngine:
    def test_every_engine_satisfies_the_protocol(self):
        for name in ("numpy", "batched"):
            assert isinstance(make_engine(name), KernelEngine)

    def test_numpy_engine_is_the_shared_reference(self):
        assert make_engine("numpy") is make_engine(None)
        assert isinstance(make_engine("numpy"), NumpyEngine)

    def test_batched_engine_takes_block_size(self):
        eng = make_engine(KernelConfig(engine="batched", block_size=8))
        assert isinstance(eng, BatchedEngine)
        assert eng.block_size == 8

    def test_ambient_default_is_reference(self):
        assert get_engine() is make_engine("numpy")

    def test_use_engine_nests_and_restores(self):
        batched = make_engine("batched")
        with use_engine(batched):
            assert get_engine() is batched
            with use_engine(None):
                assert isinstance(get_engine(), NumpyEngine)
            assert get_engine() is batched
        assert isinstance(get_engine(), NumpyEngine)


class TestPrimitiveParity:
    """Each protocol primitive: batched vs the reference engine."""

    def setup_method(self):
        self.ref = make_engine("numpy")
        self.fast = make_engine(KernelConfig(engine="batched", block_size=4))
        self.rng = np.random.default_rng(7)

    def test_scatter_add(self):
        for shape in [(30,), (30, 5), (30, 3)]:
            out_a = np.zeros(shape, dtype=np.float64)
            out_b = np.zeros(shape, dtype=np.float64)
            idx = self.rng.integers(0, 30, size=100)
            contrib = self.rng.standard_normal((100,) + shape[1:])
            self.ref.scatter_add(out_a, idx, contrib)
            self.fast.scatter_add(out_b, idx, contrib)
            assert np.allclose(out_b, out_a, **PARITY)

    def test_scatter_add_scalar_contrib(self):
        out_a = np.zeros(10, dtype=np.float64)
        out_b = np.zeros(10, dtype=np.float64)
        idx = self.rng.integers(0, 10, size=40)
        self.ref.scatter_add(out_a, idx, 1.0)
        self.fast.scatter_add(out_b, idx, 1.0)
        assert np.allclose(out_b, out_a, **PARITY)

    def test_scatter_add_empty(self):
        out = np.zeros((4, 5), dtype=np.float64)
        idx = np.zeros(0, dtype=np.int64)
        self.fast.scatter_add(out, idx, np.zeros((0, 5)))
        assert not out.any()

    def test_jacobians(self):
        q = random_state(40)
        normal = 0.5 * self.rng.standard_normal((40, 3))
        assert np.allclose(
            self.fast.euler_jacobian(q, normal),
            self.ref.euler_jacobian(q, normal),
            **PARITY,
        )
        qa, qb = random_state(40, seed=1), random_state(40, seed=2)
        ja_r, jb_r = self.ref.edge_jacobians(qa, qb, normal)
        ja_f, jb_f = self.fast.edge_jacobians(qa, qb, normal)
        assert np.allclose(ja_f, ja_r, **PARITY)
        assert np.allclose(jb_f, jb_r, **PARITY)

    def test_block_solve_and_factor(self):
        n, k = 25, 5
        diag = self.rng.standard_normal((n, k, k))
        diag += 5.0 * np.eye(k)  # diagonally dominant, well-conditioned
        rhs = self.rng.standard_normal((n, k))
        ref = self.ref.block_solve(diag, rhs)
        assert np.allclose(self.fast.block_solve(diag, rhs), ref, **PARITY)
        assert np.allclose(
            self.fast.block_factor(diag).solve(rhs), ref, **PARITY
        )
        assert np.allclose(
            self.ref.block_factor(diag).solve(rhs), ref, **PARITY
        )

    def _tridiag_system(self, nlines, length, k=5, seed=0):
        rng = np.random.default_rng(seed)
        diag = rng.standard_normal((nlines, length, k, k))
        diag += 8.0 * np.eye(k)
        lower = 0.1 * rng.standard_normal((nlines, length - 1, k, k))
        upper = 0.1 * rng.standard_normal((nlines, length - 1, k, k))
        rhs = rng.standard_normal((nlines, length, k))
        return lower, diag, upper, rhs

    def test_thomas_mixed_length_groups(self):
        # group lengths straddle the fusion width so slab packing and
        # end-padding both exercise
        systems = [
            self._tridiag_system(3, 4, seed=0),
            self._tridiag_system(2, 7, seed=1),
            self._tridiag_system(6, 2, seed=2),
        ]
        ref = self.ref.thomas(systems)
        fast = self.fast.thomas(systems)
        assert len(fast) == len(ref)
        for a, b in zip(fast, ref):
            assert a.shape == b.shape
            assert np.allclose(a, b, **PARITY)

    def test_rk_update_is_bitwise(self):
        q0 = random_state(50)
        r = self.rng.standard_normal((50, 5))
        scale = self.rng.random(50)
        ref = q0 - scale[:, None] * r
        assert np.array_equal(self.ref.rk_update(q0, scale, r), ref)
        assert np.array_equal(self.fast.rk_update(q0, scale, r), ref)


def _ref_block_thomas(lower, diag, upper, rhs):
    """The recursion the engines ran before ``thomas_factor`` existed
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
        k=st.sampled_from([5, 6]), engine=st.sampled_from(ENGINES),
        seed=st.integers(0, 2**16),
    )
    def test_matches_the_old_recursion_and_a_dense_solve(
            self, L, m, k, engine, seed):
        lower, diag, upper = drawn_line_group(L, m, k, seed)
        rhs = np.random.default_rng(seed + 1).standard_normal((L, m, k))
        out = make_engine(engine).thomas_factor(lower, diag, upper).solve(rhs)
        assert out.shape == (L, m, k)
        assert np.allclose(out, _ref_block_thomas(lower, diag, upper, rhs),
                           rtol=1e-12, atol=1e-12)
        assert np.allclose(
            out, _dense_tridiagonal_solve(lower, diag, upper, rhs),
            rtol=1e-12, atol=1e-12,
        )

    @settings(max_examples=30, deadline=None)
    @given(
        L=st.integers(1, 6), m=st.integers(1, 12),
        k=st.sampled_from([5, 6]), engine=st.sampled_from(ENGINES),
        seed=st.integers(0, 2**16),
    )
    def test_one_factor_serves_every_stage(self, L, m, k, engine, seed):
        """Three right-hand sides through one factor — a smoothing
        step's three stages — equal three one-shot solves exactly, and
        leave the factor and the inputs untouched."""
        eng = make_engine(engine)
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

    @pytest.mark.parametrize("engine", ENGINES)
    def test_single_station_and_empty_groups(self, engine):
        eng = make_engine(engine)
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
        """Frozen point blocks are inverted once on every engine — the
        same class, not a per-engine copy."""
        rng = np.random.default_rng(3)
        diag = rng.standard_normal((9, 6, 6)) + 6.0 * np.eye(6)
        rhs = rng.standard_normal((9, 6))
        factors = [make_engine(e).block_factor(diag) for e in ENGINES]
        assert len({type(f) for f in factors}) == 1
        assert np.array_equal(*(f.solve(rhs) for f in factors))
        assert np.allclose(factors[0].solve(rhs),
                           np.linalg.solve(diag, rhs[:, :, None])[:, :, 0],
                           rtol=1e-12, atol=1e-12)


#: trailing shapes a contribution can have: scalar rows, state vectors,
#: Jacobian blocks
TAILS = [(), (1,), (5,), (6,), (3, 4), (6, 6)]


class TestScatterOperator:
    """A prebuilt operator is the same accumulation as ``np.add.at`` on
    its index arrays — same additions, same order, so bit-identical —
    and every engine applies it the same way."""

    @settings(max_examples=150, deadline=None)
    @given(
        nrows=st.integers(1, 12),
        ncols=st.integers(0, 40),
        nterms=st.integers(1, 3),
        tail=st.sampled_from(TAILS),
        scalar=st.booleans(),
        engine=st.sampled_from(ENGINES),
        seed=st.integers(0, 2**16),
    )
    def test_equals_add_at(self, nrows, ncols, nterms, tail, scalar, engine,
                           seed):
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
        make_engine(engine).scatter_add(out, incidence(nrows, *terms), contrib)
        assert np.array_equal(out, expect)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_index_arrays_still_work(self, engine):
        """Ad-hoc index sets keep the engine's own scatter."""
        rng = np.random.default_rng(3)
        idx = rng.integers(0, 7, size=50)
        contrib = rng.normal(size=(50, 5))
        expect = np.zeros((7, 5))
        np.add.at(expect, idx, contrib)
        out = np.zeros((7, 5))
        make_engine(engine).scatter_add(out, idx, contrib)
        assert np.allclose(out, expect, **PARITY)

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


def nsu3d_for(engine_cfg, mesh, turbulence=True):
    return api.make_nsu3d_solver(
        mesh=mesh, mach=0.5, mg_levels=2, turbulence=turbulence,
        kernel_config=engine_cfg,
    )


def cart3d_for(engine_cfg, sphere):
    return api.make_cart3d_solver(
        sphere, dim=2, base_level=4, max_level=5, mg_levels=3, mach=0.4,
        kernel_config=engine_cfg,
    )


class TestSerialSolverParity:
    """Full-solve parity: the acceptance window is 1e-10."""

    def test_nsu3d_turbulent(self, nsu3d_mesh):
        ref = nsu3d_for(KernelConfig(), nsu3d_mesh)
        fast = nsu3d_for(KernelConfig(engine="batched"), nsu3d_mesh)
        for _ in range(3):
            ref.run_cycle()
            fast.run_cycle()
        assert np.allclose(fast.q, ref.q, **SOLVER_PARITY)
        assert np.allclose(
            fast.history.residuals, ref.history.residuals, rtol=1e-10
        )

    def test_cart3d(self, sphere):
        ref = cart3d_for(KernelConfig(), sphere)
        fast = cart3d_for(KernelConfig(engine="batched"), sphere)
        for _ in range(3):
            ref.run_cycle()
            fast.run_cycle()
        assert np.allclose(fast.q, ref.q, **SOLVER_PARITY)
        assert np.allclose(
            fast.history.residuals, ref.history.residuals, rtol=1e-10
        )

    def test_small_block_size_changes_nothing(self, nsu3d_mesh):
        """Aggressive slab packing (block_size=2 forces many fused,
        padded slabs) stays inside the parity window."""
        ref = nsu3d_for(KernelConfig(), nsu3d_mesh)
        fast = nsu3d_for(
            KernelConfig(engine="batched", block_size=2), nsu3d_mesh
        )
        ref.run_cycle()
        fast.run_cycle()
        assert np.allclose(fast.q, ref.q, **SOLVER_PARITY)


class TestDistributedParity:
    """A decomposed solve runs the engine of the serial solver it
    decomposes — there is no second place to choose it."""

    def test_nsu3d_two_ranks(self, nsu3d_mesh):
        results = []
        for cfg in (KernelConfig(), KernelConfig(engine="batched")):
            solver = nsu3d_for(cfg, nsu3d_mesh, turbulence=False)
            pn = api.make_parallel_nsu3d(solver, 2)
            qg, hist = pn.run(SimMPI(2), 2, cfl=8.0, cycle="W")
            assert pn.kernels.engine.name == cfg.engine
            assert np.isfinite(qg).all() and len(hist) == 2
            results.append(qg)
        assert np.allclose(results[1], results[0], **SOLVER_PARITY)

    def test_cart3d_two_ranks(self, sphere):
        for cfg in (KernelConfig(), KernelConfig(engine="batched")):
            solver = cart3d_for(cfg, sphere)
            pc = api.make_parallel_cart3d(solver, 2)
            qg, hist = pc.run(SimMPI(2), 2, cfl=solver.cfl, cycle="W")
            assert pc.kernels.engine.name == cfg.engine
            assert np.isfinite(qg).all() and len(hist) == 2

    def test_cart3d_engines_agree_distributed(self, sphere):
        results = []
        for cfg in (KernelConfig(), KernelConfig(engine="batched")):
            solver = cart3d_for(cfg, sphere)
            pc = api.make_parallel_cart3d(solver, 2)
            qg, _ = pc.run(SimMPI(2), 2, cfl=solver.cfl, cycle="W")
            results.append(qg)
        assert np.allclose(results[1], results[0], **PARITY)

    def test_parallel_inherits_serial_engine(self, sphere):
        """The inheritance rule on ``sim`` and ``process``: the kernels
        object carries the serial solver's engine (it is what a
        ``WorkerSpec`` pickles), and the workers' history is bit-equal
        to the in-process one on that engine."""
        import pickle

        solver = cart3d_for(KernelConfig(engine="batched", block_size=8),
                            sphere)
        pc = api.make_parallel_cart3d(solver, 2)
        assert pc.kernels.kernel_config == solver.kernel_config
        shipped = pickle.loads(pickle.dumps(pc.kernels))
        assert shipped.engine.name == "batched"
        assert shipped.engine.block_size == 8
        _, hist_sim = pc.solve(2, cfl=solver.cfl)
        with api.make_parallel_cart3d(
            solver, 2, config=RuntimeConfig(backend="process"),
        ) as workers:
            _, hist = workers.solve(2, cfl=solver.cfl)
        assert hist == hist_sim


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
        engine=st.sampled_from(ENGINES),
    )
    def test_every_level_serial_and_four_partitions(
        self, nsu3d_mesh, mach, alpha, turbulence, engine
    ):
        solver = api.make_nsu3d_solver(
            mesh=nsu3d_mesh, mach=mach, alpha_deg=alpha, mg_levels=3,
            turbulence=turbulence, kernel_config=KernelConfig(engine=engine),
        )
        qinf = solver.qinf
        par = api.make_parallel_nsu3d(solver, 4)
        assert len(solver.contexts) > 1
        with use_engine(solver.engine):
            for level, ctx in enumerate(solver.contexts):
                q = np.tile(qinf, (ctx.npoints, 1))
                # sa_sources=False: the pointwise SA destruction term is
                # (nu/d)^2 of the state, not a flux balance
                r = nsu3d_residual(ctx, q, qinf, turbulence=turbulence,
                                   sa_sources=False)
                inside = self.interior(ctx)
                assert inside.sum() > 0
                assert np.abs(r[inside]).max() <= 1e-13

                total = np.zeros_like(r)
                for dom in par.hierarchy.levels[level].domains:
                    part = nsu3d_residual(
                        dom.ctx, np.tile(qinf, (dom.nlocal, 1)), qinf,
                        turbulence=turbulence, sa_sources=False,
                    )
                    # rows a partition masked as its own wall rows are
                    # outside ``inside`` anyway
                    np.add.at(total, dom.halo.local_to_global(), part)
                assert np.abs(total[inside]).max() <= 1e-13
        par.close()


class TestNoRawScatterOnTheCyclePath:
    """Lint R015 bans ``np.add.at`` statically; this is the dynamic
    side — the reference engine's ad-hoc fallback *is* ``np.add.at``, so
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
            nsu3d_for(KernelConfig(), nsu3d_mesh),
            api.make_nsu3d_solver(mesh=nsu3d_mesh, mach=0.5, mg_levels=2,
                                  turbulence=False, order2=True),
            cart3d_for(KernelConfig(), sphere),
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
                nsu3d_for(KernelConfig(), nsu3d_mesh), 4), 8.0),
            (api.make_parallel_cart3d(
                cart3d_for(KernelConfig(), sphere), 4), 2.0),
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
        solver = nsu3d_for(KernelConfig(), nsu3d_mesh)
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
        solver = cart3d_for(KernelConfig(), sphere)
        solver.run_cycle()
        refs = [weakref.ref(solver.levels[0].face_scatter),
                weakref.ref(solver.transfers[0].scatter)]
        del solver
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    @pytest.mark.parametrize("built", [False, True])
    def test_worker_spec_round_trips_through_pickle(self, nsu3d_mesh, built):
        solver = nsu3d_for(KernelConfig(), nsu3d_mesh)
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
            nsu3d_residual(twin, q, solver.qinf, sa_sources=False),
            nsu3d_residual(fine, q, solver.qinf, sa_sources=False),
        )
        par.close()


class TestFacadeSurface:
    def test_nsu3d_factory_takes_kernel_config(self, nsu3d_mesh):
        solver = api.make_nsu3d_solver(
            mesh=nsu3d_mesh, mg_levels=2,
            kernel_config=KernelConfig(engine="batched"),
        )
        assert solver.kernel_config.engine == "batched"
        assert solver.engine.name == "batched"

    def test_blessed_paths_stay_silent(self, sphere):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solver = api.make_cart3d_solver(
                sphere, dim=2, base_level=4, max_level=5, mg_levels=2,
                kernel_config=KernelConfig(engine="batched"),
            )
        assert solver.engine.name == "batched"

    def test_bare_kernel_keywords_rejected(self, sphere):
        """``kernel_config=`` is the only spelling on the factories."""
        for bare in ({"engine": "batched"}, {"block_size": 16}):
            with pytest.raises(TypeError):
                api.make_cart3d_solver(
                    sphere, dim=2, base_level=4, max_level=5, mg_levels=2,
                    **bare,
                )
        with pytest.raises(TypeError):
            api.make_parallel_cart3d(
                cart3d_for(None, sphere), 2,
                kernel_config=KernelConfig(engine="batched"),
            )


class TestCacheKeyInvariance:
    """Engines are numerically interchangeable, so the engine choice
    must not perturb database cache keys or campaign manifests."""

    def test_runner_settings_are_engine_independent(self):
        from repro.mesh.cartesian import wing_body

        geo = wing_body()
        base = api.Cart3DCaseRunner(geo, mg_levels=2, cycles=4)
        fast = api.Cart3DCaseRunner(
            geo, mg_levels=2, cycles=4,
            kernel_config=KernelConfig(engine="batched"),
        )
        assert fast.settings() == base.settings()
        assert fast.describe() == base.describe()
        assert fast.kernel_config == KernelConfig(engine="batched")


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
