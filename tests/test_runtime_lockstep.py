"""The lockstep in-process driver (``sim``/``hybrid`` backends).

A decomposed solve steps every rank of its SimMPI world on the calling
thread: an exchange moves every rank's rows by index over one stacked
array and charges the messages a rank program would send.  These tests
pin what that must not change — arrays, the virtual ledger and the
trace are those of a rank program per rank, each sending real messages
— and what it newly guarantees: no threads, no messages, and failures
raised on the spot.
"""

import dataclasses
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.comm import SimMPI, build_halos
from repro.comm.hybrid import HybridProcess
from repro.comm.simmpi import Comm, fold
from repro.errors import DeadlockError, RankFailure
from repro.mesh.cartesian import Sphere
from repro.mesh.unstructured import bump_channel
from repro.runtime import (LevelSpec, LockstepComm, RuntimeConfig,
                           backends, build_domain_set, make_exchanger)
from repro.runtime.domain import RowStack
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


def oracle(halos, fills, add):
    """The exchange by global id, in plain numpy: owner -> ghost copy,
    or ghost -> owner add with the ghost rows zeroed."""
    nvert = sum(h.nowned for h in halos)
    owned = np.zeros((nvert,) + fills[0].shape[1:])
    for h in halos:
        owned[h.owned_global] = fills[h.rank][: h.nowned]
    if add:
        for h in halos:  # a halo lists each ghost once
            owned[h.ghost_global] += fills[h.rank][h.nowned:]
    out = {}
    for h in halos:
        out[h.rank] = np.zeros_like(fills[h.rank])
        out[h.rank][: h.nowned] = owned[h.owned_global]
        if not add:
            out[h.rank][h.nowned:] = owned[h.ghost_global]
    return out


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


def assert_every_send_received(trace):
    """Each traced send is matched by exactly one receive."""
    sends = [e.eid for e in trace if e.op == "send"]
    assert sends
    assert sorted(e.matched for e in trace if e.op == "recv") == sends


def rank_events(world):
    """Every rank's trace in program order, a receive naming the send it
    matched by (rank, seq): eids depend on the schedule, these do not."""
    by_eid = {e.eid: e for e in world.trace}
    return sorted(
        (e.rank, e.seq, e.op, e.peer, e.tag, e.nbytes, e.clock.hex(),
         e.detail, None if e.matched is None
         else (by_eid[e.matched].rank, by_eid[e.matched].seq))
        for e in world.trace
    )


class TestLockstepEqualsThreaded:
    """The same plans, driven by a rank program per rank inside
    ``SimMPI.run`` and by the lockstep exchanger, leave the same bits
    everywhere an observer can look — and the arrays the global-id
    oracle says, whatever the ranks per process."""

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

    @settings(max_examples=60, deadline=None)
    @given(
        nx=st.integers(3, 6), ny=st.integers(3, 6),
        nparts=st.integers(1, 6),
        nvar=st.one_of(st.integers(1, 6), st.just(12)),
        op=st.sampled_from(["copy", "add", "start_finish"]),
        charging=st.booleans(), per_rank=st.integers(1, 3),
        traced=st.booleans(), stacked=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_arrays_clocks_and_stats_bit_equal(
        self, nx, ny, nparts, nvar, op, charging, per_rank, traced,
        stacked, seed
    ):
        """The lockstep side moves rows by index — over the stacked
        array of ``RowStack.split`` views, or joined from plain arrays —
        and replays the ledger; the rank programs send real messages.
        Arrays, allreduce, clocks, stats and every rank's trace agree
        bit for bit."""
        nvert, edges = grid_graph(nx, ny)
        rng = np.random.default_rng(seed)
        part = rng.permutation(np.arange(nvert) % nparts)
        doms = dict(enumerate(build_domain_set(
            LevelSpec(nvert, edges, lambda halo, part: None), part
        ).domains))
        halos = [dom.halo for dom in doms.values()]
        plans = {h.rank: h.plan for h in halos}
        fills = {p: rng.standard_normal((halos[p].nlocal, nvar))
                 for p in plans}
        nranks = -(-nparts // per_rank)

        world = SimMPI(nranks, trace=traced)
        group = LockstepComm(world, nparts)
        if stacked:
            x = group.exchanger(plans, doms)
            arrays = RowStack(doms).split(
                np.concatenate([fills[p] for p in doms])
            )
        else:
            x = group.exchanger(plans)
            arrays = {p: a.copy() for p, a in fills.items()}
        total = self.program(x, group.allreduce, arrays, sorted(plans), op,
                             charging)
        expected = oracle(halos, fills, add=op == "add")
        for p in plans:
            assert np.allclose(arrays[p], expected[p], rtol=1e-13,
                               atol=1e-13)

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

        threaded = SimMPI(nranks, trace=traced)
        for mine, out in threaded.run(body):
            assert np.array_equal(out, total)
            for p, arr in mine.items():
                assert arr.tobytes() == arrays[p].tobytes(), p
        assert ([c.clock.hex() for c in world.comms]
                == [c.clock.hex() for c in threaded.comms])
        assert ([c.stats for c in world.comms]
                == [c.stats for c in threaded.comms])
        assert rank_events(world) == rank_events(threaded)

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
        assert_every_send_received(first.trace)

    @pytest.mark.parametrize("nranks", [4, 2], ids=["sim", "hybrid"])
    def test_traced_cart3d_solve_checks_clean(self, cart3d_solver, nranks):
        par = make_parallel_cart3d(
            cart3d_solver, 4, config=RuntimeConfig(overlap=True),
        )
        world = SimMPI(nranks, trace=True)
        par.run(world, 1, cfl=CFL_CART3D)
        assert_every_send_received(world.trace)


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


class TestWorldRowGather:
    """What the world-row gather adds beyond matching the rank programs
    (:class:`TestLockstepEqualsThreaded`): no message, one index build
    per level, plan errors at index build, stale windows refused."""

    def test_a_solve_sends_no_message(self, nsu3d_solver, cart3d_solver,
                                      count_calls):
        sends = count_calls(Comm, "isend")
        recvs = count_calls(Comm, "irecv")
        world = SimMPI(4)
        make_parallel_nsu3d(nsu3d_solver, 4).run(world, 1, cfl=CFL_NSU3D)
        overlapped = RuntimeConfig(overlap=True)
        make_parallel_cart3d(cart3d_solver, 4, config=overlapped).solve(
            1, cfl=CFL_CART3D
        )
        assert world.total_stats().messages_sent > 0
        assert sends == [] and recvs == []

    def test_index_arrays_are_built_once_per_level(self, nsu3d_solver,
                                                   count_calls):
        builds = count_calls(backends, "_WorldRows")
        par = make_parallel_nsu3d(nsu3d_solver, 4)
        for _ in range(3):
            par.solve(1, cfl=CFL_NSU3D)
        assert len(builds) == par.hierarchy.nlevels

    def test_one_span_per_rank_and_exchange_and_none_untraced(
        self, nsu3d_solver, count_calls
    ):
        records = count_calls(telemetry.Tracer, "record")
        exchanges = count_calls(backends, "_LockstepPending")
        par = make_parallel_nsu3d(nsu3d_solver, 4)
        par.solve(1, cfl=CFL_NSU3D)
        assert exchanges and records == []
        with telemetry.capture() as tracer:
            par.solve(1, cfl=CFL_NSU3D)
        per_rank = [
            sum(s.rank == rank for s in tracer.spans if s.cat == "comm")
            for rank in range(4)
        ]
        assert per_rank == [len(exchanges) // 2] * 4

    def test_a_window_left_open_makes_the_next_finish_stale(self):
        nvert, edges = grid_graph(4, 4)
        halos = build_halos(nvert, edges, (np.arange(nvert) * 2) // nvert)
        plans = {h.rank: h.plan for h in halos}
        X = LockstepComm(SimMPI(2), 2).exchanger(plans)
        arrays = {p: np.zeros((halos[p].nlocal, 2)) for p in plans}
        X.start_copy(arrays, tag=4)  # dropped, never finished
        X.copy(arrays, tag=3)  # another tag is unaffected
        with pytest.raises(ValueError, match="stale"):
            X.start_copy(arrays, tag=4).finish()

    @pytest.mark.parametrize("corrupt, error, match", [
        (lambda plans: plans[0].owned_slots.pop(1), DeadlockError,
         "rank 1 deadlocked waiting for rank 0 tag 9: partition 1 holds "
         "ghosts of partition 0"),
        (lambda plans: plans[1].ghost_slots.pop(0), DeadlockError,
         "rank 0 deadlocked waiting for rank 1 tag 9: partition 0 lists "
         "owned rows for partition 1"),
        (lambda plans: plans[0].owned_slots.update(
            {1: plans[0].owned_slots[1][:-1]}), ValueError,
         "partition 0 lists owned rows for partition 1 in 3 rows, "
         "partition 1 mirrors 4"),
        (lambda plans: plans[1].ghost_slots.update(
            {0: plans[1].ghost_slots[0] + 100}), IndexError,
         "partition 1 holds ghosts of partition 0 at a slot outside"),
    ], ids=["ghosts-without-mirror", "owned-without-mirror",
            "length-mismatch", "slot-range"])
    def test_plan_errors_surface_at_index_build(self, corrupt, error, match):
        nvert, edges = grid_graph(4, 4)
        # reversed strips: partition 1 holds partition 0's rows as ghosts
        halos = build_halos(nvert, edges,
                            1 - (np.arange(nvert) * 2) // nvert)
        plans = {h.rank: h.plan for h in halos}
        assert list(plans[1].ghost_slots) == [0]
        corrupt(plans)
        X = LockstepComm(SimMPI(2), 2).exchanger(plans)
        arrays = {p: np.zeros((halos[p].nlocal, 3)) for p in plans}
        with pytest.raises(error, match=match):
            X.add(arrays, tag=9)
