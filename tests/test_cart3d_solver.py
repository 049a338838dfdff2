"""Tests for the Cart3D-style Euler solver."""

import numpy as np
import pytest

from repro.mesh.cartesian import CartesianMesh, Sphere
from repro.runtime import SFCPartitioner
from repro.solvers.cart3d import Cart3DSolver, build_levels, residual
from repro.solvers.gas import freestream

SPHERE = Sphere(center=[0.5, 0.5, 0.5], radius=0.15)


@pytest.fixture(scope="module")
def small_solver():
    return Cart3DSolver(
        SPHERE, dim=2, base_level=4, max_level=5, mg_levels=3, mach=0.4
    )


class TestLevels:
    def test_hierarchy_shrinks(self, small_solver):
        sizes = [l.nflow for l in small_solver.levels]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_transfer_maps_total(self, small_solver):
        for level, t in zip(small_solver.levels, small_solver.transfers):
            assert len(t.parent) == level.nflow
            assert t.parent.min() >= 0

    def test_volumes_telescope(self, small_solver):
        """Coarse open volumes = summed fine open volumes."""
        fine = small_solver.levels[0]
        coarse = small_solver.levels[1]
        t = small_solver.transfers[0]
        agg = np.zeros(coarse.nflow)
        np.add.at(agg, t.parent, fine.vol)
        assert np.allclose(agg, coarse.vol, rtol=1e-12)

    def test_bad_mg_levels(self):
        with pytest.raises(ValueError):
            build_levels(SPHERE, dim=2, base_level=3, max_level=4, mg_levels=0)


class TestResidual:
    def test_freestream_preserved_without_body(self):
        """Uniform flow in an empty box is an exact steady state."""
        far_sphere = Sphere(center=[5.0, 5.0, 5.0], radius=0.1)  # outside
        mesh = CartesianMesh.uniform(2, 4)
        levels, _ = build_levels(far_sphere, mesh=mesh, dim=2, mg_levels=1)
        qinf = freestream(0.5, alpha_deg=3.0)
        q = np.tile(qinf, (levels[0].nflow, 1))
        r = residual(levels[0], q, qinf)
        assert np.abs(r).max() < 1e-11

    def test_body_disturbs_freestream(self, small_solver):
        level = small_solver.levels[0]
        q = np.tile(small_solver.qinf, (level.nflow, 1))
        r = residual(level, q, small_solver.qinf)
        assert np.abs(r).max() > 1e-3


class TestConvergence:
    def test_multigrid_converges(self, small_solver):
        hist = small_solver.solve(ncycles=50, tol_orders=4.0)
        assert hist.orders_converged() >= 4.0

    def test_multigrid_beats_single_grid(self):
        """The fig. 21 mechanism: single grid needs far more cycles."""
        mg = Cart3DSolver(SPHERE, dim=2, base_level=4, max_level=5,
                          mg_levels=3, mach=0.4)
        sg = Cart3DSolver(SPHERE, dim=2, base_level=4, max_level=5,
                          mg_levels=1, mach=0.4)
        mg.solve(ncycles=40, tol_orders=3.0)
        sg.solve(ncycles=40, tol_orders=3.0)
        n_mg = mg.history.cycles_to(3.0)
        n_sg = sg.history.cycles_to(3.0)
        assert n_mg is not None
        assert n_sg is None or n_sg > 2 * n_mg

    def test_forces_settle(self, small_solver):
        """After convergence, the drag of consecutive cycles agrees."""
        f1 = small_solver.history.forces[-2]["cd"]
        f2 = small_solver.history.forces[-1]["cd"]
        assert f1 == pytest.approx(f2, rel=1e-3, abs=1e-6)

    def test_symmetric_flow_zero_lift(self, small_solver):
        """Zero-alpha flow over a centered circle: cl ~ 0."""
        assert abs(small_solver.forces()["cl"]) < 5e-2

    def test_flop_counters_advance(self, small_solver):
        assert small_solver.counters.total_flops > 0

    def test_v_cycle_also_converges(self):
        s = Cart3DSolver(SPHERE, dim=2, base_level=4, max_level=5,
                         mg_levels=3, mach=0.4)
        hist = s.solve(ncycles=60, tol_orders=3.0, cycle="V")
        assert hist.orders_converged() >= 3.0

    def test_second_order_runs(self):
        s = Cart3DSolver(SPHERE, dim=2, base_level=4, max_level=5,
                         mg_levels=2, mach=0.4, order2=True)
        hist = s.solve(ncycles=15, tol_orders=2.0)
        assert hist.residuals[-1] < hist.residuals[0]

    def test_surface_pressures_shape(self, small_solver):
        centers, p = small_solver.surface_pressures()
        assert len(centers) == len(p) > 0
        assert (p > 0).all()


class TestParallel:
    def test_partition_balances_weighted_cells(self):
        solver = Cart3DSolver(SPHERE, dim=2, base_level=4, max_level=5,
                              mg_levels=1, mach=0.4)
        level = solver.levels[0]
        part = SFCPartitioner.from_level(level).partition(4)
        from repro.partition import cell_weights

        w = cell_weights(level.cut.is_cut_flow())
        loads = [w[part == p].sum() for p in range(4)]
        assert max(loads) / (sum(loads) / 4) < 1.2

    def test_partition_contiguous_on_curve(self):
        solver = Cart3DSolver(SPHERE, dim=2, base_level=4, max_level=5,
                              mg_levels=1, mach=0.4)
        part = SFCPartitioner.from_level(solver.levels[0]).partition(4)
        assert (np.diff(part) >= 0).all()
