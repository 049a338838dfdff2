"""Lifecycle, protocol and config tests for the process backend.

Parity of the numbers lives in ``test_runtime_parity.py``; this file
covers everything around the numbers: the RuntimeConfig contract (the
one spelling of every execution choice), the neighbour-only exchange
protocol stepped on one thread over a plain NumPy slab, spawn/teardown
robustness (worker death in every kind of wait → ``WorkerCrash``,
double shutdown, pool respawn), warm workers (a closed pool parks its
workers, the next pool of that size rebuilds them), picklability of
the build recipe, and the telemetry spans workers ship home.
"""

import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.runtime
from repro.comm import SimMPI
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
    DomainHierarchy,
    LevelSpec,
    LockstepComm,
    ProcessComm,
    ProcessExchanger,
    RuntimeConfig,
    SharedLayout,
    build_domain_set,
    shutdown_parked,
)
from repro.runtime import process
from repro.runtime.domain import row_stack
from repro.runtime.backends import CONSUMED, POSTED
from repro.solvers.cart3d import Cart3DSolver, make_parallel_cart3d
from repro.solvers.nsu3d import NSU3DSolver, make_parallel_nsu3d
from repro.solvers.nsu3d.parallel import NSU3DKernels
from repro.telemetry import capture
from repro.telemetry.spans import get_tracer


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


def is_parked(pool) -> bool:
    """Whether ``pool``'s workers are the parked group of their size."""
    group = process._PARKED.get(pool.nranks)
    return group is not None and group.procs is pool._procs


@pytest.fixture
def process_starts(monkeypatch):
    """Every process started while the test runs, in start order."""
    started = []
    start = multiprocessing.process.BaseProcess.start

    def counted(proc):
        started.append(proc)
        start(proc)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        counted)
    return started


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


def slab_world(ni, nj, nparts, nvar, timeout=0.05, seed=0):
    """One level of an ``ni x nj`` grid graph cut into ``nparts`` random
    (all non-empty) pieces, and the process backend's per-rank
    exchangers over a plain NumPy slab: no process, no shared memory.
    Returns ``(domains, layout, slab, exchangers)``."""
    idx = np.arange(ni * nj).reshape(ni, nj)
    edges = np.concatenate([
        np.stack([idx[:-1].ravel(), idx[1:].ravel()], axis=1),
        np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1),
    ])
    rng = np.random.default_rng(seed)
    part = rng.permutation(np.arange(ni * nj) % nparts)
    level = build_domain_set(
        LevelSpec(ni * nj, edges, lambda halo, part: None), part
    )
    layout = SharedLayout.build(DomainHierarchy([level], []), nvar)
    slab = np.zeros(layout.total)
    xs = [
        ProcessExchanger(
            ProcessComm(p, layout, slab, timeout, 0.0), dom,
            layout.channels(slab, 0, p, dom.halo.plan),
        )
        for p, dom in enumerate(level.domains)
    ]
    return level.domains, layout, slab, xs


def sequence_words(layout, slab):
    """``{channel: (posted, consumed)}`` as the slab holds them now."""
    return {
        key: (slab[off + POSTED], slab[off + CONSUMED])
        for key, (off, _cap) in layout.pair_offsets.items()
    }


class TestProtocolOnOneThread:
    """Every wait of the process backend depends on data alone — a
    sequence word a named peer writes — so the whole protocol can be
    stepped publish-all / consume-all by one thread."""

    @settings(max_examples=60, deadline=None)
    @given(
        ni=st.integers(2, 5), nj=st.integers(2, 5),
        nparts=st.integers(1, 4), nvar=st.integers(1, 3),
        ops=st.lists(
            st.tuples(st.sampled_from(["copy", "add", "window"]),
                      st.booleans()),
            min_size=1, max_size=6,
        ),
        seed=st.integers(0, 2**16),
    )
    def test_bit_equal_to_plan_exchanger(self, ni, nj, nparts, nvar, ops,
                                         seed):
        doms, layout, slab, xs = slab_world(ni, nj, nparts, nvar, seed=seed)
        level = dict(enumerate(doms))
        reference = LockstepComm(SimMPI(nparts), nparts).exchanger(level)
        spans = row_stack(level).spans
        rng = np.random.default_rng(seed)
        before = sequence_words(layout, slab)

        def check_words():
            nonlocal before
            now = sequence_words(layout, slab)
            for key, (posted, consumed) in now.items():
                assert consumed <= posted, key
                assert posted >= before[key][0], key
                assert consumed >= before[key][1], key
            before = now

        for tag, (op, blocks) in enumerate(ops):
            # vector rows, or the (nvar, nvar) diagonals the slab is
            # sized for
            tail = (nvar, nvar) if blocks else (nvar,)
            mine = {
                p: rng.standard_normal((dom.nlocal,) + tail)
                for p, dom in enumerate(doms)
            }
            theirs = np.concatenate([mine[p] for p in level])
            if op == "window":
                pendings = [x.start_copy(mine[p], tag=tag)
                            for p, x in enumerate(xs)]
                reference.start_copy(theirs, tag=tag).finish()
            else:
                pendings = [x.post(mine[p], tag, add=op == "add")
                            for p, x in enumerate(xs)]
                getattr(reference, op)(theirs, tag=tag)
            check_words()
            for pending in pendings:
                pending.finish()
                check_words()
            for p in mine:
                assert mine[p].tobytes() == theirs[spans[p]].tobytes(), \
                    (op, p)
        assert all(posted == consumed == len(ops)
                   for posted, consumed in before.values())

    def test_consume_before_publish_times_out_and_is_a_span(self):
        doms, _layout, _slab, xs = slab_world(3, 3, 2, 2, timeout=0.05)
        arr = np.zeros((doms[0].nlocal, 2))
        t0 = time.monotonic()
        with capture() as tracer:
            with pytest.raises(WorkerCrash, match="waited .* for rank 1"):
                xs[0].copy(arr, tag=3)
        assert time.monotonic() - t0 < 2.0
        (wait,) = [s for s in tracer.spans if s.name == "comm.wait"]
        assert wait.args == {"level": 0, "peer": 1, "what": "posted",
                             "seq": 1}

    def test_untraced_wait_records_nothing(self):
        doms, _layout, _slab, xs = slab_world(3, 3, 2, 2, timeout=0.05)
        arr = np.zeros((doms[0].nlocal, 2))
        with pytest.raises(WorkerCrash):
            xs[0].copy(arr, tag=3)
        assert not get_tracer().spans

    def test_abort_word_ends_a_wait_at_once(self):
        doms, layout, slab, xs = slab_world(3, 3, 2, 2, timeout=600.0)
        layout.coll_views(slab)[2][0] = 1.0     # what _fail() stores
        t0 = time.monotonic()
        with pytest.raises(WorkerCrash, match="aborted"):
            xs[1].comm.allreduce({1: np.ones(2)})
        assert time.monotonic() - t0 < 2.0

    def test_allreduce_folds_in_rank_order_one_wait_each(self):
        doms, layout, slab, xs = slab_world(3, 3, 3, 2, timeout=0.05)
        comms = [x.comm for x in xs]
        parts = [np.array([0.1 * (r + 1), 1e16 * (-1) ** r]) for r in (0, 1, 2)]
        for seq in (1, 2, 3):
            # the last rank to arrive finds every row posted: it returns
            # without waiting; the others are still short of it
            for r in (0, 1):
                with pytest.raises(WorkerCrash, match="allreduce"):
                    comms[r].allreduce({r: parts[r]})
            got = comms[2].allreduce({2: parts[2]})
            assert got.tobytes() == ((parts[0] + parts[1]) + parts[2]).tobytes()
            assert list(layout.coll_views(slab)[1]) == [seq] * 3

    def test_second_open_window_is_refused(self):
        doms, _layout, _slab, xs = slab_world(3, 3, 2, 2)
        arr = np.zeros((doms[0].nlocal, 2))
        xs[0].start_copy(arr, tag=7)
        for again in (lambda: xs[0].start_copy(arr, tag=8),
                      lambda: xs[0].add(arr, tag=8)):
            with pytest.raises(ExchangeLifecycleError) as excinfo:
                again()
            text = str(excinfo.value)
            assert "rank 0" in text and "level 0" in text
            assert "tag 8" in text and "tag 7" in text

    @pytest.mark.parametrize("theirs", [
        {"tag": 6, "tail": (2,)},       # a different exchange
        {"tag": 5, "tail": (2, 2)},     # the same one, another payload
    ])
    def test_diverged_peer_is_named_not_read(self, theirs):
        doms, _layout, _slab, xs = slab_world(3, 3, 2, 2)
        mine = np.zeros((doms[0].nlocal, 2))
        other = np.ones((doms[1].nlocal,) + theirs["tail"])
        xs[1].post(other, theirs["tag"])
        with pytest.raises(ExchangeLifecycleError) as excinfo:
            xs[0].copy(mine, tag=5)
        text = str(excinfo.value)
        assert "rank 0 expected tag 5" in text and "from rank 1" in text
        assert "level 0" in text and f"posted tag {theirs['tag']}" in text
        assert not mine.any()


class DyingKernels(NSU3DKernels):
    """NSU3D kernels whose rank ``victim`` ``os._exit``s at its
    ``nth`` ``smooth``; every other rank first runs ``op`` there, so
    that is the wait it sits in when its peer is gone.  Picklable by
    name: spawned workers import this module."""

    def __init__(self, real, victim, op, nth=3):
        vars(self).update(vars(real))
        self.victim, self.op, self.nth, self.calls = victim, op, nth, 0

    def smooth(self, X, doms, q, **kwargs):
        self.calls += 1
        if self.calls == self.nth:
            if X.comm.rank == self.victim:
                os._exit(17)
            if self.op == "allreduce":
                X.comm.allreduce({p: np.ones(1) for p in doms})
            elif self.op == "window":
                X.start_copy(q.copy(), tag=90).finish()
            else:
                getattr(X, self.op)(q.copy(), tag=90)
        return super().smooth(X, doms, q, **kwargs)


class TestSpawnLifecycle:
    @pytest.mark.parametrize("op", ["copy", "add", "allreduce", "window"])
    def test_peer_death_in_every_kind_of_wait(self, nsu3d_solver, op):
        config = RuntimeConfig(backend="process", worker_timeout=8.0,
                               overlap=op == "window")
        with make_parallel_nsu3d(nsu3d_solver, 2, config=config) as pn:
            real = pn.kernels
            pn.kernels = DyingKernels(real, victim=1, op=op)
            pool = pn._ensure_pool()
            t0 = time.monotonic()
            # the crash names the dead rank and how it ended
            with pytest.raises(WorkerCrash, match=r"worker 1 .*exit code 17"):
                pn.solve(2, cfl=8.0)
            assert time.monotonic() - t0 < config.worker_timeout
            # nobody is left spinning: the crashed pool's workers are
            # dead and never parked, and once the parked set is shut
            # down there is nothing for run.py's reap() to kill
            assert pool.closed
            assert all(not p.is_alive() for p in pool._procs)
            assert pool._procs[1].exitcode == 17
            assert not is_parked(pool)
            shutdown_parked()
            assert multiprocessing.active_children() == []
            pn.kernels = real
            qg, hist = pn.solve(1, cfl=8.0)
            assert np.isfinite(qg).all() and np.isfinite(hist).all()


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
        assert not is_parked(pool)
        assert all(not p.is_alive() for p in pool._procs)

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
        # a closed pool's workers are parked: alive, and idle (they
        # have sent nothing since their last reply)
        assert is_parked(pool)
        assert all(p.is_alive() for p in pool._procs)
        assert not any(conn.poll(0) for conn in pool._conns)
        # shutting the parked set down (twice is fine) leaves no process
        shutdown_parked()
        shutdown_parked()
        assert all(not p.is_alive() for p in pool._procs)
        assert multiprocessing.active_children() == []

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


class TestWarmWorkers:
    """Workers are spawned once per rank count: a closed pool parks
    them and the next pool with as many ranks rebuilds them from its
    spec, with numbers bit-equal to freshly spawned workers."""

    @pytest.mark.parametrize("first", ["nsu3d", "cart3d"])
    @pytest.mark.parametrize("overlap", [False, True])
    def test_reused_workers_equal_fresh_ones(self, nsu3d_solver,
                                             cart3d_solver, first, overlap,
                                             process_starts):
        config = RuntimeConfig(backend="process", overlap=overlap,
                               sanitize=overlap)
        makers = {
            "nsu3d": (make_parallel_nsu3d, nsu3d_solver, 8.0),
            "cart3d": (make_parallel_cart3d, cart3d_solver, 2.0),
        }
        second = "cart3d" if first == "nsu3d" else "nsu3d"

        def solve(name):
            make, solver, cfl = makers[name]
            with make(solver, 2, config=config) as par:
                return par.solve(2, cfl=cfl, cycle="W")

        shutdown_parked()
        fresh = solve(first)
        assert len(process_starts) == 2
        # the group serves the other solver, then the first one again
        solve(second)
        reused = solve(first)
        assert len(process_starts) == 2
        assert reused[0].tobytes() == fresh[0].tobytes()
        assert [float(r).hex() for r in reused[1]] == [
            float(r).hex() for r in fresh[1]]

    def test_second_driver_starts_no_process(self, nsu3d_solver,
                                             process_starts):
        with make_parallel_nsu3d(nsu3d_solver, 2, config=PROCESS) as pn:
            pn.solve(1, cfl=8.0)
            first = pn._pool
        started = len(process_starts)
        with make_parallel_nsu3d(nsu3d_solver, 2, config=PROCESS) as pn:
            qg, hist = pn.solve(1, cfl=8.0)
            assert pn._pool._procs is first._procs
        assert len(process_starts) == started
        assert np.isfinite(qg).all() and np.isfinite(hist).all()

    def test_worker_killed_while_parked(self, nsu3d_solver, process_starts):
        with make_parallel_nsu3d(nsu3d_solver, 2, config=PROCESS) as pn:
            pn.solve(1, cfl=8.0)
            pool = pn._pool
        assert is_parked(pool)
        pool._procs[0].kill()
        pool._procs[0].join(timeout=10.0)
        started = len(process_starts)
        with make_parallel_nsu3d(nsu3d_solver, 2, config=PROCESS) as pn:
            qg, hist = pn.solve(1, cfl=8.0)
        # seen at reuse: the broken group is stopped, a fresh one spawned
        assert len(process_starts) == started + 2
        assert all(not p.is_alive() for p in pool._procs)
        assert np.isfinite(qg).all() and np.isfinite(hist).all()

    def test_pools_closing_together_park_one_group(self, nsu3d_solver,
                                                   process_starts):
        """Four threads hold a 1-rank pool each, then close them at
        once: one group stays parked and every displaced one is stopped,
        so no worker is left alive outside the parked set."""
        shutdown_parked()
        together = threading.Barrier(4, timeout=60)

        def drive():
            with make_parallel_nsu3d(nsu3d_solver, 1, config=PROCESS) as pn:
                pn._ensure_pool()
                together.wait()
                return pn.solve(1, cfl=8.0)[0]

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as pool:
                solves = [pool.submit(drive) for _ in range(4)]
                results = [f.result(timeout=120) for f in solves]
        finally:
            sys.setswitchinterval(old)
        assert all(np.isfinite(qg).all() for qg in results)
        assert len(process_starts) == 4
        parked = process._PARKED[1].procs
        assert [p for p in process_starts if p.is_alive()] == parked

    def test_exiting_interpreter_leaves_no_worker(self):
        """A child interpreter that solves, closes (parking its
        workers) and exits takes every worker with it."""
        repo = Path(__file__).parent.parent
        script = (
            "from repro.mesh.unstructured import bump_channel\n"
            "from repro.runtime import RuntimeConfig\n"
            "from repro.solvers.nsu3d import NSU3DSolver, "
            "make_parallel_nsu3d\n"
            "mesh = bump_channel(ni=6, nj=3, nk=4, wall_spacing=5e-3, "
            "ratio=1.3, bump_height=0.03)\n"
            "solver = NSU3DSolver(mesh=mesh, mach=0.5, mg_levels=1, "
            "turbulence=False, cfl=8.0)\n"
            "config = RuntimeConfig(backend='process')\n"
            "with make_parallel_nsu3d(solver, 2, config=config) as pn:\n"
            "    pn.solve(1, cfl=8.0)\n"
            "    print(*(p.pid for p in pn._pool._procs))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            cwd=repo, timeout=120,
            env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        pids = [int(pid) for pid in proc.stdout.split()]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


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

    def test_slow_waits_are_counted_and_barriers_are_gone(
            self, nsu3d_solver, record_property):
        """The count pin of the synchronisation: a traced solve reports
        the waits that left the spin phase, per rank per cycle, each
        naming who was waited for; there is no barrier left to wait on."""
        ncycles = 2
        with make_parallel_nsu3d(nsu3d_solver, 2, config=PROCESS) as pn:
            pn.solve(1, cfl=8.0)
            with capture() as tracer:
                pn.solve(ncycles, cfl=8.0)
        waits = [s for s in tracer.spans if s.name == "comm.wait"]
        exchanges = [s for s in tracer.spans
                     if s.name.startswith("comm.exchange")]
        for rank in (0, 1):
            mine = [s for s in waits if s.rank == rank]
            record_property(f"slow_waits_per_cycle_rank{rank}",
                            len(mine) / ncycles)
            assert {s.args["what"] for s in mine} <= {
                "posted", "consumed", "allreduce"}
            on_channels = [s for s in mine if s.args["what"] != "allreduce"]
            assert all(s.args["peer"] == 1 - rank for s in on_channels)
            # each half of an exchange waits once on its one neighbour
            halves = sum(1 for s in exchanges if s.rank == rank)
            assert len(on_channels) <= halves
        assert not hasattr(ProcessComm, "wait")
        assert not hasattr(ProcessComm, "barrier")
        for path in Path(repro.runtime.__file__).parent.glob("*.py"):
            assert "Barrier" not in path.read_text(), path