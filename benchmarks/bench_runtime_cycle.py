"""Runtime-refactor benchmark: per-cycle cost of the unified driver.

Two measurements per solver, written to ``results/runtime_cycle.*``:

* **wall time per parallel multigrid cycle** — serial ``fas_cycle``
  versus the :class:`~repro.runtime.DistributedSolveDriver` on a SimMPI
  world (the distributed stack's Python-level overhead on top of the
  same kernel work, since SimMPI ranks execute sequentially in one
  process);
* **virtual makespan with overlap on/off** — with calibrated kernel
  FLOPs charged to each rank's virtual clock (``charge_compute=True``),
  the posted-send / compute-interior / finish-boundary mode (paper
  fig. 7) should shave the exchange latency that the blocking mode
  serializes;
* **wall time per exchange, per level** — a ``copy`` and an ``add``
  of the level's plans on the ``sim`` world by the lockstep exchanger
  (one gather over the stacked rows, ledger replayed from the plans;
  min of ``EXCHANGE_ROUNDS`` rounds of ``EXCHANGE_CALLS``);
* **real wall clock under ``backend="process"``** — the same cycles on
  a spawned worker pool at 1/2/4 workers.  Unlike the SimMPI columns
  this is true concurrency, so on a machine with >= 4 cores the 4-worker
  column must beat the 1-worker column (``speedup`` in the JSON).
  Pool spawn is excluded from the timing (a warm-up solve runs first),
  and each column is the median of ``PROCESS_SOLVES`` solves: one solve
  of this size read 0.039 and 0.056 s on one tree minutes apart.
"""

import os
import statistics
import time

import numpy as np
from conftest import save_result

from repro import api
from repro.api import RuntimeConfig, SimMPI
from repro.runtime import LockstepComm
from repro.mesh.cartesian import Sphere
from repro.mesh.unstructured import bump_channel
from repro.solvers.cart3d import Cart3DSolver
from repro.solvers.cart3d import fas_cycle as cart3d_fas_cycle
from repro.solvers.nsu3d import NSU3DSolver
from repro.solvers.nsu3d import fas_cycle as nsu3d_fas_cycle

NPARTS = 4
NCYCLES = 3
PROCESS_WORKERS = (1, 2, 4)
PROCESS_SOLVES = 15
EXCHANGE_CALLS = 200
EXCHANGE_ROUNDS = 5


def _wall(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) / NCYCLES


def _measure(name, serial_cycle, make_parallel):
    rows = {}
    rows["serial"] = _wall(lambda: [serial_cycle() for _ in range(NCYCLES)])

    for label, overlap in (("parallel", False), ("overlap", True)):
        par = make_parallel(RuntimeConfig(overlap=overlap))
        world = SimMPI(NPARTS)
        rows[label] = _wall(
            lambda: par.run(world, NCYCLES, cfl=par_cfl(name))
        )

    makespans = {}
    for label, overlap in (("blocking", False), ("overlap", True)):
        par = make_parallel(
            RuntimeConfig(overlap=overlap, charge_compute=True)
        )
        world = SimMPI(NPARTS)
        par.run(world, NCYCLES, cfl=par_cfl(name))
        makespans[label] = world.max_clock()
    return rows, makespans


def _exchange_us(par, nvar: int) -> list:
    """Per level, µs per lockstep ``copy`` / ``add`` on the level's
    own plans."""
    out = []
    for level in par.hierarchy.levels:
        doms = dict(enumerate(level.domains))
        rows = np.ones((sum(dom.nlocal for dom in doms.values()), nvar))
        x = LockstepComm(SimMPI(NPARTS), NPARTS).exchanger(doms)
        row = {}
        for op in ("copy", "add"):
            step = getattr(x, op)
            best = np.inf
            for _ in range(EXCHANGE_ROUNDS):
                t0 = time.perf_counter()
                for _ in range(EXCHANGE_CALLS):
                    step(rows)
                best = min(best, time.perf_counter() - t0)
            row[f"lockstep_{op}"] = best / EXCHANGE_CALLS * 1e6
        out.append(row)
    return out


def _measure_process(name, make_process):
    """Wall time per cycle on the spawned worker pool, per worker count.

    The pool persists across ``solve`` calls, so the warm-up solve both
    spawns the workers and primes their caches; the solves after it are
    timed and their median reported.
    """
    rows = {}
    for nworkers in PROCESS_WORKERS:
        with make_process(nworkers) as par:
            par.solve(1, cfl=par_cfl(name))  # spawn + warm-up, untimed
            rows[f"process_{nworkers}"] = statistics.median(
                _wall(lambda: par.solve(NCYCLES, cfl=par_cfl(name)))
                for _ in range(PROCESS_SOLVES)
            )
    return rows


def par_cfl(name: str) -> float:
    return 8.0 if name == "nsu3d" else 2.0


def test_runtime_cycle_cost():
    mesh = bump_channel(ni=10, nj=5, nk=8, wall_spacing=5e-3, ratio=1.3,
                        bump_height=0.03)
    ns = NSU3DSolver(mesh=mesh, mach=0.5, mg_levels=2, turbulence=False,
                     cfl=8.0)
    q_ns = {"q": np.tile(ns.qinf, (ns.contexts[0].npoints, 1))}

    def nsu3d_cycle():
        q_ns["q"] = nsu3d_fas_cycle(
            ns.contexts, ns.maps, q_ns["q"], ns.qinf, cycle="W", cfl=8.0,
            turbulence=False,
        )

    sphere = Sphere(center=[0.5, 0.5, 0.5], radius=0.15)
    c3 = Cart3DSolver(sphere, dim=2, base_level=4, max_level=6,
                      mg_levels=3, mach=0.4)
    q_c3 = {"q": np.tile(c3.qinf, (c3.levels[0].nflow, 1))}

    def cart3d_cycle():
        q_c3["q"] = cart3d_fas_cycle(
            c3.levels, c3.transfers, q_c3["q"], c3.qinf, cycle="W", cfl=2.0,
        )

    results = {}
    results["nsu3d"] = _measure(
        "nsu3d", nsu3d_cycle,
        lambda config: api.make_parallel_nsu3d(ns, NPARTS, config=config),
    )
    results["cart3d"] = _measure(
        "cart3d", cart3d_cycle,
        lambda config: api.make_parallel_cart3d(c3, NPARTS, config=config),
    )

    exchanges = {
        "nsu3d": _exchange_us(
            api.make_parallel_nsu3d(ns, NPARTS), len(ns.qinf)
        ),
        "cart3d": _exchange_us(
            api.make_parallel_cart3d(c3, NPARTS), len(c3.qinf)
        ),
    }

    process = {}
    process["nsu3d"] = _measure_process(
        "nsu3d",
        lambda nw: api.make_parallel_nsu3d(
            ns, nw, config=RuntimeConfig(backend="process"),
        ),
    )
    process["cart3d"] = _measure_process(
        "cart3d",
        lambda nw: api.make_parallel_cart3d(
            c3, nw, config=RuntimeConfig(backend="process"),
        ),
    )

    lines = [
        "Unified runtime: per-cycle cost "
        f"({NPARTS} partitions, W-cycle, {NCYCLES}-cycle average)",
        "",
        f"{'solver':<8} {'serial s/cyc':>13} {'parallel s/cyc':>15} "
        f"{'overlap s/cyc':>14} {'virt blocking':>14} {'virt overlap':>13} "
        f"{'proc x1':>9} {'proc x2':>9} {'proc x4':>9} {'speedup':>8}",
    ]
    data = {}
    for name, (rows, makespans) in results.items():
        proc = process[name]
        speedup = proc["process_1"] / proc["process_4"]
        lines.append(
            f"{name:<8} {rows['serial']:>13.4f} {rows['parallel']:>15.4f} "
            f"{rows['overlap']:>14.4f} {makespans['blocking']:>14.6f} "
            f"{makespans['overlap']:>13.6f} {proc['process_1']:>9.4f} "
            f"{proc['process_2']:>9.4f} {proc['process_4']:>9.4f} "
            f"{speedup:>8.2f}"
        )
        data[name] = {
            "wall_per_cycle": rows,
            "virtual_makespan": makespans,
            "process_wall_per_cycle": proc,
            "speedup": speedup,
            "nparts": NPARTS,
            "exchange_us": exchanges[name],
        }
    data["cpu_count"] = os.cpu_count()
    lines += [
        "",
        f"Per-exchange wall, us ({NPARTS} partitions on SimMPI({NPARTS}), "
        f"min of {EXCHANGE_ROUNDS} x {EXCHANGE_CALLS})",
        "",
        f"{'solver':<8} {'level':>5} {'copy lockstep':>14} "
        f"{'add lockstep':>13}",
    ]
    for name, per_level in exchanges.items():
        for level, row in enumerate(per_level):
            lines.append(
                f"{name:<8} {level:>5} {row['lockstep_copy']:>14.1f} "
                f"{row['lockstep_add']:>13.1f}"
            )
    lines += [
        "",
        "wall columns: same kernel work, SimMPI ranks run sequentially "
        "in-process, so parallel/serial measures stack overhead;",
        "virtual columns: calibrated FLOPs charged to rank clocks — "
        "overlap hides exchange latency behind interior compute;",
        "proc columns: real wall clock on the spawned worker pool, median "
        f"of {PROCESS_SOLVES} solves (speedup = proc x1 / proc x4; "
        f"cpu_count={os.cpu_count()});",
        "exchange columns: one gather over the stacked rows plus the "
        "ledger replay.",
    ]
    save_result("runtime_cycle", "\n".join(lines), data=data)

    for name, (rows, makespans) in results.items():
        # the distributed stack must stay within a sane overhead factor
        # of the serial cycle (it does the same numerical work)
        assert rows["parallel"] < rows["serial"] * 25, name
        # overlap must never make the virtual makespan worse
        assert makespans["overlap"] <= makespans["blocking"] * 1.001, name
        # real concurrency must pay off once there are cores to use it
        if (os.cpu_count() or 1) >= 4:
            assert data[name]["speedup"] > 1.0, (
                f"{name}: process backend shows no wall-clock speedup "
                f"on {os.cpu_count()} cores"
            )
