"""Lifecycle and config tests for the process backend (PR 7).

Parity of the numbers lives in ``test_runtime_parity.py``; this file
covers everything around the numbers: the RuntimeConfig contract (the
one spelling of every execution choice), spawn/teardown robustness
(worker death → ``WorkerCrash``, double shutdown, pool respawn),
picklability of the build recipe, the ``PendingGroup`` partial-progress fix, and the
telemetry spans workers ship home.
"""

import pickle

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    ExchangeLifecycleError,
    RuntimeClosed,
    WorkerCrash,
)
from repro.mesh.cartesian import Sphere
from repro.mesh.unstructured import bump_channel
from repro.runtime import (
    DistributedSolveDriver,
    PendingGroup,
    RuntimeConfig,
    make_exchanger,
)
from repro.solvers.cart3d import Cart3DSolver, make_parallel_cart3d
from repro.solvers.nsu3d import NSU3DSolver, make_parallel_nsu3d
from repro.telemetry import capture


@pytest.fixture(scope="module")
def nsu3d_solver():
    mesh = bump_channel(ni=6, nj=3, nk=4, wall_spacing=5e-3, ratio=1.3,
                        bump_height=0.03)
    return NSU3DSolver(mesh=mesh, mach=0.5, mg_levels=1, turbulence=False,
                      cfl=8.0)


@pytest.fixture(scope="module")
def cart3d_solver():
    sphere = Sphere(center=[0.5, 0.5, 0.5], radius=0.15)
    return Cart3DSolver(sphere, dim=2, base_level=4, max_level=5,
                        mg_levels=2, mach=0.4)


PROCESS = RuntimeConfig(backend="process")


class TestRuntimeConfig:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            RuntimeConfig(backend="mpi")

    def test_process_rejects_charge_compute(self):
        with pytest.raises(ConfigurationError, match="charge_compute"):
            RuntimeConfig(backend="process", charge_compute=True)

    def test_worker_timeout_positive(self):
        with pytest.raises(ConfigurationError, match="worker_timeout"):
            RuntimeConfig(worker_timeout=0.0)

    def test_resolve_defaults_one_rank_per_partition(self):
        assert RuntimeConfig().resolve(4).nranks == 4
        assert RuntimeConfig(backend="process").resolve(3).nranks == 3

    def test_hybrid_needs_explicit_smaller_nranks(self):
        with pytest.raises(ConfigurationError, match="explicit nranks"):
            RuntimeConfig(backend="hybrid").resolve(4)
        with pytest.raises(ConfigurationError, match="fewer ranks"):
            RuntimeConfig(backend="hybrid", nranks=4).resolve(4)
        assert RuntimeConfig(backend="hybrid", nranks=2).resolve(4).nranks == 2

    def test_rank_partition_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="one worker per"):
            RuntimeConfig(backend="process", nranks=2).resolve(4)
        with pytest.raises(ConfigurationError, match="one rank per"):
            RuntimeConfig(backend="sim", nranks=2).resolve(4)

    def test_make_exchanger_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="unknown exchanger"):
            make_exchanger("openmp", None)

    def test_config_and_legacy_keywords_conflict(self, cart3d_solver):
        """``config=`` is the only spelling: a bare execution keyword is
        a TypeError everywhere — never folded in, never silently
        dropped because a config was also given."""
        from repro.database import Cart3DCaseRunner
        from repro.mesh.cartesian import wing_body

        with pytest.raises(TypeError):
            make_parallel_cart3d(cart3d_solver, 2, overlap=True)
        pc = make_parallel_cart3d(cart3d_solver, 2)
        with pytest.raises(TypeError):
            DistributedSolveDriver(pc.hierarchy, pc.kernels, pc.qinf,
                                   config=RuntimeConfig(), sanitize=True)
        with pytest.raises(TypeError):
            Cart3DCaseRunner(wing_body(), nranks=2)

    def test_backend_conflicting_with_config_rejected(self, cart3d_solver):
        """There is no ``backend=`` shorthand to conflict with."""
        with pytest.raises(TypeError):
            make_parallel_cart3d(cart3d_solver, 2, backend="process",
                                 config=RuntimeConfig(backend="sim"))

    def test_case_runner_config_path(self):
        from repro.database import Cart3DCaseRunner
        from repro.mesh.cartesian import wing_body

        runner = Cart3DCaseRunner(
            wing_body(),
            config=RuntimeConfig(backend="process", nranks=2, overlap=True),
        )
        assert runner.backend == "process"
        assert runner.nranks == 2 and runner.overlap
        assert runner.settings()["backend"] == "process"
        assert runner.settings()["nranks"] == 2
        with pytest.raises(ConfigurationError, match="explicit nranks"):
            Cart3DCaseRunner(wing_body(),
                             config=RuntimeConfig(backend="process"))


class TestSpawnLifecycle:
    def test_worker_death_raises_worker_crash(self, nsu3d_solver):
        pn = make_parallel_nsu3d(nsu3d_solver, 2, config=PROCESS)
        try:
            pool = pn._ensure_pool()
            pool._procs[0].terminate()
            pool._procs[0].join(timeout=10.0)
            with pytest.raises(WorkerCrash):
                pool.run(ncycles=1, cfl=8.0)
            assert pool.closed
        finally:
            pn.close()

    def test_pool_respawns_after_crash(self, nsu3d_solver):
        pn = make_parallel_nsu3d(nsu3d_solver, 2, config=PROCESS)
        try:
            pool = pn._ensure_pool()
            pool._procs[1].terminate()
            pool._procs[1].join(timeout=10.0)
            with pytest.raises(WorkerCrash):
                pn.solve(1, cfl=8.0)
            # the driver notices the dead pool and spawns a fresh one
            qg, hist = pn.solve(1, cfl=8.0)
            assert np.isfinite(qg).all() and np.isfinite(hist).all()
        finally:
            pn.close()

    def test_double_shutdown_is_clean(self, nsu3d_solver):
        pn = make_parallel_nsu3d(nsu3d_solver, 2, config=PROCESS)
        pn.solve(1, cfl=8.0)
        pool = pn._pool
        pn.close()
        pn.close()
        pool.close()  # and directly on the already-closed pool
        assert pool.closed
        assert all(not p.is_alive() for p in pool._procs)

    def test_closed_pool_refuses_to_run(self, nsu3d_solver):
        pn = make_parallel_nsu3d(nsu3d_solver, 2, config=PROCESS)
        pool = pn._ensure_pool()
        pn.close()
        with pytest.raises(RuntimeClosed):
            pool.run(ncycles=1, cfl=8.0)
        # the driver itself recovers: a new pool is spawned on demand
        qg, _ = pn.solve(1, cfl=8.0)
        assert np.isfinite(qg).all()
        pn.close()

    def test_run_rejected_for_process_backend(self, nsu3d_solver):
        from repro.comm import SimMPI

        pn = make_parallel_nsu3d(nsu3d_solver, 2, config=PROCESS)
        with pytest.raises(ConfigurationError, match="solve"):
            pn.run(SimMPI(2), 1, cfl=8.0)
        pn.close()


class TestSpecPickling:
    def test_kernels_round_trip(self, nsu3d_solver, cart3d_solver):
        from repro.solvers.cart3d.parallel import Cart3DKernels
        from repro.solvers.nsu3d.parallel import NSU3DKernels

        kn = NSU3DKernels(nsu3d_solver.qinf, viscous=True)
        kc = Cart3DKernels(cart3d_solver.qinf, flux="vanleer")
        kn2 = pickle.loads(pickle.dumps(kn))
        kc2 = pickle.loads(pickle.dumps(kc))
        assert np.array_equal(kn2.qinf, kn.qinf) and kn2.viscous
        assert np.array_equal(kc2.qinf, kc.qinf) and kc2.flux == "vanleer"

    def test_worker_spec_round_trip(self, cart3d_solver):
        from repro.runtime.process import SharedLayout

        pc = make_parallel_cart3d(cart3d_solver, 2)
        layout = SharedLayout.build(pc.hierarchy, nvar=len(pc.qinf))
        assert pickle.loads(pickle.dumps(layout)).total == layout.total
        dom = pc.hierarchy.levels[0].domains[0]
        from repro.runtime import DistributedDomain

        fresh = DistributedDomain(dom.halo, dom.ctx)
        dom2 = pickle.loads(pickle.dumps(fresh))
        assert dom2.nowned == dom.nowned
        assert np.array_equal(dom2.halo.owned_global, dom.halo.owned_global)


class TestPendingGroupPartialProgress:
    class _Ok:
        def __init__(self):
            self.done = False

        def finish(self):
            self.done = True

    class _Boom:
        class plan:
            rank = 7

        def __init__(self):
            self.done = False
            self.armed = True

        def finish(self):
            if self.armed:
                raise RuntimeError("transient finish failure")
            self.done = True

    def test_partial_progress_is_kept_and_error_names_partition(self):
        ok1, boom, ok2 = self._Ok(), self._Boom(), self._Ok()
        group = PendingGroup([ok1, boom, ok2])
        with pytest.raises(RuntimeError) as excinfo:
            group.finish()
        assert any("partition 7" in n
                   for n in getattr(excinfo.value, "__notes__", []))
        # progress before the failure is kept, the group stays open
        assert ok1.done and not group.done and not ok2.done
        boom.armed = False
        group.finish()
        assert group.done and ok2.done and boom.done
        with pytest.raises(ExchangeLifecycleError):
            group.finish()


class TestWorkerTelemetry:
    def test_spans_come_home_with_rank_identity(self, cart3d_solver):
        with make_parallel_cart3d(cart3d_solver, 2, config=PROCESS) as pc:
            with capture() as tracer:
                pc.solve(1, cfl=2.0)
        ranks = {s.rank for s in tracer.spans}
        assert {0, 1} <= ranks
        names = {s.name for s in tracer.spans}
        assert "cart3d.parallel_cycle" in names
        assert any(n.startswith("comm.exchange") for n in names)
        # per-rank spans are internally consistent intervals
        assert all(s.t1 >= s.t0 for s in tracer.spans)