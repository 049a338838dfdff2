"""The lockstep in-process driver (``sim``/``hybrid`` backends).

A decomposed solve steps every rank of its SimMPI world on the calling
thread: exchanges are posted on every rank's endpoint, then finished on
every rank.  These tests pin what that must not change — arrays, the
virtual ledger and the trace are those of a rank program per rank — and
what it newly guarantees: no threads, and failures raised on the spot.
"""

import dataclasses
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.analysis.tracecheck import check_trace
from repro.comm import SimMPI, build_halos
from repro.comm.hybrid import HybridProcess
from repro.comm.simmpi import fold
from repro.errors import DeadlockError, RankFailure
from repro.mesh.cartesian import Sphere
from repro.mesh.unstructured import bump_channel
from repro.runtime import LockstepComm, RuntimeConfig, make_exchanger
from repro.solvers.cart3d import Cart3DSolver, make_parallel_cart3d
from repro.solvers.nsu3d import NSU3DSolver, make_parallel_nsu3d
from repro.solvers.nsu3d.parallel import NSU3DKernels

CFL_NSU3D = 8.0
CFL_CART3D = 2.0


def grid_graph(nx, ny):
    vid = np.arange(nx * ny).reshape(nx, ny)
    edges = np.concatenate([
        np.column_stack([vid[:-1].ravel(), vid[1:].ravel()]),
        np.column_stack([vid[:, :-1].ravel(), vid[:, 1:].ravel()]),
    ])
    return nx * ny, edges.astype(np.int64)


@pytest.fixture(scope="module")
def nsu3d_solver():
    mesh = bump_channel(ni=8, nj=4, nk=6, wall_spacing=5e-3, ratio=1.3,
                        bump_height=0.03)
    return NSU3DSolver(mesh=mesh, mach=0.5, mg_levels=2, turbulence=False,
                       cfl=CFL_NSU3D)


@pytest.fixture(scope="module")
def cart3d_solver():
    sphere = Sphere(center=[0.5, 0.5, 0.5], radius=0.15)
    return Cart3DSolver(sphere, dim=2, base_level=4, max_level=5,
                        mg_levels=3, mach=0.4)


class TestFailurePaths:
    def test_missing_send_is_a_deadlock_raised_on_the_spot(self):
        nvert, edges = grid_graph(6, 6)
        halos = build_halos(nvert, edges, (np.arange(nvert) * 2) // nvert)
        plans = {h.rank: h.plan for h in halos}
        # rank 1 forgets rank 0: it sends it nothing and expects nothing,
        # while rank 0 still waits for rank 1's owner values
        del plans[1].owned_slots[0]
        assert plans[0].neighbors == [1] and plans[1].neighbors == []
        X = LockstepComm(SimMPI(2), 2).exchanger(plans)
        arrays = {p: np.zeros((halos[p].nlocal, 2)) for p in plans}
        with pytest.raises(
            DeadlockError,
            match="rank 0 deadlocked waiting for rank 1 tag 7",
        ):
            X.copy(arrays, tag=7)

    def test_lone_collective_is_a_deadlock_too(self):
        comms = SimMPI(3).lockstep()
        with pytest.raises(DeadlockError, match="collective"):
            comms[1].allreduce(1.0)

    def test_kernel_failure_is_a_rank_failure_and_world_is_reusable(
        self, nsu3d_solver
    ):
        class Flaky(NSU3DKernels):
            calls = 0

            def smooth(self, *args, **kwargs):
                Flaky.calls += 1
                if Flaky.calls == 3:  # mid-cycle, messages in the mailboxes
                    raise ArithmeticError("planted")
                return super().smooth(*args, **kwargs)

        par = make_parallel_nsu3d(nsu3d_solver, 4)
        good = par.kernels
        world = SimMPI(4)
        par.kernels = Flaky(nsu3d_solver.qinf, turbulence=False)
        with pytest.raises(RankFailure) as info:
            par.run(world, 2, cfl=CFL_NSU3D)
        assert isinstance(info.value.__cause__, ArithmeticError)
        assert info.value.rank == 0
        par.kernels = good
        q, hist = par.run(world, 2, cfl=CFL_NSU3D)
        fresh = SimMPI(4)
        q_ref, hist_ref = par.run(fresh, 2, cfl=CFL_NSU3D)
        assert np.array_equal(q, q_ref) and hist == hist_ref
        assert world.max_clock() == fresh.max_clock()
        assert world.total_stats() == fresh.total_stats()

    @pytest.mark.parametrize("config", [
        RuntimeConfig(backend="sim"),
        RuntimeConfig(backend="hybrid", nranks=2),
    ], ids=["sim", "hybrid"])
    def test_solve_starts_no_thread(self, monkeypatch, nsu3d_solver,
                                    cart3d_solver, config):
        def refuse(self):
            raise AssertionError(f"thread {self.name} started by a solve")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        par = make_parallel_nsu3d(nsu3d_solver, 4, config=config)
        _, hist = par.solve(1, cfl=CFL_NSU3D)
        assert np.isfinite(hist).all()
        overlapped = dataclasses.replace(config, overlap=True)
        par = make_parallel_cart3d(cart3d_solver, 4, config=overlapped)
        _, hist = par.solve(1, cfl=CFL_CART3D)
        assert np.isfinite(hist).all()


class TestLockstepEqualsThreaded:
    """The same plans, driven by a rank program per rank inside
    ``SimMPI.run`` and by the lockstep exchanger, leave the same bits
    everywhere an observer can look."""

    @staticmethod
    def program(X, comm_allreduce, arrays, pids, op, charging):
        X.charging = charging
        X.charge({p: 1.0e6 * (p + 1) for p in pids})
        if op == "copy":
            X.copy(arrays, tag=3)
        elif op == "add":
            X.add(arrays, tag=3)
        else:
            pending = X.start_copy(arrays, tag=3)
            X.charge({p: 2.0e6 * (7 - p) for p in pids})
            pending.finish()
        return comm_allreduce(
            {p: np.array([arrays[p].sum(), 1.0]) for p in pids}
        )

    @settings(max_examples=40, deadline=None)
    @given(
        nx=st.integers(3, 6), ny=st.integers(3, 6),
        nparts=st.integers(2, 6), nvar=st.integers(1, 6),
        op=st.sampled_from(["copy", "add", "start_finish"]),
        charging=st.booleans(), per_rank=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**16),
    )
    def test_arrays_clocks_and_stats_bit_equal(
        self, nx, ny, nparts, nvar, op, charging, per_rank, seed
    ):
        nvert, edges = grid_graph(nx, ny)
        rng = np.random.default_rng(seed)
        part = rng.permutation(np.arange(nvert) % nparts)
        halos = build_halos(nvert, edges, part)
        plans = {h.rank: h.plan for h in halos}
        fills = {p: rng.standard_normal((halos[p].nlocal, nvar))
                 for p in plans}
        nranks = -(-nparts // per_rank)

        world = SimMPI(nranks)
        group = LockstepComm(world, nparts)
        arrays = {p: a.copy() for p, a in fills.items()}
        total = self.program(group.exchanger(plans), group.allreduce,
                             arrays, sorted(plans), op, charging)

        def body(comm):
            pids = group.pids[comm.rank]
            if nranks == nparts:
                X = make_exchanger("plan", comm,
                                   plans={p: plans[p] for p in pids})
            else:
                X = make_exchanger("hybrid", comm, process=HybridProcess(
                    rank=comm.rank, part_ids=pids, plans=plans,
                    proc_of=group.proc_of,
                ))
            mine = {p: fills[p].copy() for p in pids}
            out = self.program(
                X, lambda parts: comm.allreduce(
                    fold([parts[p] for p in pids], "sum")
                ), mine, pids, op, charging,
            )
            return mine, out

        threaded = SimMPI(nranks)
        for mine, out in threaded.run(body):
            assert np.array_equal(out, total)
            for p, arr in mine.items():
                assert np.array_equal(arr, arrays[p])
        assert ([c.clock for c in world.comms]
                == [c.clock for c in threaded.comms])
        assert ([c.stats for c in world.comms]
                == [c.stats for c in threaded.comms])

    @pytest.mark.parametrize("nranks", [4, 2], ids=["sim", "hybrid"])
    def test_traced_solve_repeats_exactly_and_checks_clean(
        self, nsu3d_solver, nranks
    ):
        par = make_parallel_nsu3d(
            nsu3d_solver, 4, config=RuntimeConfig(overlap=nranks == 4),
        )

        def traced():
            world = SimMPI(nranks, trace=True)
            par.run(world, 1, cfl=CFL_NSU3D)
            return world

        first, second = traced(), traced()
        assert first.trace and first.trace == second.trace
        if nranks == 4:
            # (a traced *hybrid* solve has always read as racy: every
            # level's HybridProcess numbers its phases from zero on the
            # same buffer names, threaded or not)
            assert check_trace(first.trace, first.nranks) == []


class TestTelemetryUnderLockstep:
    def test_comm_spans_keep_their_rank_and_solver_spans_take_the_lowest(
        self, nsu3d_solver
    ):
        par = make_parallel_nsu3d(nsu3d_solver, 4)
        world = SimMPI(4)
        with telemetry.capture() as tracer:
            par.run(world, 1, cfl=CFL_NSU3D)
        exchanges = [s for s in tracer.spans
                     if s.name.startswith("comm.exchange")]
        assert {s.rank for s in exchanges} == {0, 1, 2, 3}
        for s in exchanges:
            # stamped on the owning rank's virtual clock, not the caller's
            assert 0.0 <= s.t0 <= s.t1 <= world.comms[s.rank].clock
        for rank in range(4):
            mine = [s for s in exchanges if s.rank == rank]
            assert sum(s.dur for s in mine) <= (
                world.comms[rank].stats.comm_seconds * (1 + 1e-12)
            )
        solver = [s for s in tracer.spans if s.cat != "comm"]
        assert any(s.name == "nsu3d.parallel_cycle" for s in solver)
        assert {s.rank for s in solver} == {0}
