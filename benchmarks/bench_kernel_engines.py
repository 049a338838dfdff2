"""Kernel-engine acceptance bench (PR 9).

Runs both solvers on both engines and records the telemetry
the issue gates on: seconds per multigrid cycle, achieved GFLOP/s and
the roofline fraction against one Itanium2 (the paper's §V comparison).
The calibrated FLOP counters bill identical work to every engine, so a
higher roofline fraction is exactly a faster wall clock.  The bench
asserts that the engines' final states agree within the 1e-10 parity
window and records the ``batched``/``numpy`` ratio.  It used to assert
that ``batched`` beats the reference on both solvers; since scatter
over fixed index sets goes through the same prebuilt operators on
either engine (PR 15), the bincount scatter that carried ``batched`` on
NSU3D is no longer a difference between them, and what is left — stacked
edge Jacobians, fused Thomas slabs, prefactored diagonals — measures at
parity there.  The ratio is a number for the roadmap's "one engine or
two" question, so the gate is only that ``batched`` is not markedly
slower (:data:`SLOWDOWN_LIMIT`).
"""

import time

import numpy as np

from conftest import save_result

from repro import api
from repro.kernels import KernelConfig
from repro.machine import CPU_ITANIUM2_1600
from repro.mesh.cartesian import Sphere
from repro.mesh.unstructured import bump_channel
from repro.telemetry import Timeline, add_perf_counters, metrics

WARMUP_CYCLES = 1
CYCLES_PER_ROUND = 2
ROUNDS = 4

#: ``batched`` may not fall further behind the reference than this.
SLOWDOWN_LIMIT = 1.25

#: Full-state agreement window between engines (matches the test gate).
PARITY = dict(rtol=1e-10, atol=1e-10)


def nsu3d_factory(kernel_config):
    mesh = bump_channel(ni=20, nj=8, nk=14, wall_spacing=2e-3, ratio=1.35)
    return api.make_nsu3d_solver(
        mesh=mesh, mach=0.5, mg_levels=3, turbulence=True,
        kernel_config=kernel_config,
    )


def cart3d_factory(kernel_config):
    return api.make_cart3d_solver(
        Sphere(center=[0.5, 0.5, 0.5], radius=0.2),
        dim=3, base_level=3, max_level=6, mg_levels=3, mach=0.5,
        kernel_config=kernel_config,
    )


def measure(factory, configs: dict) -> dict:
    """s/cycle + roofline metrics for every engine on one solver.

    Rounds are interleaved across the engines and each engine keeps its
    *fastest* round: timing noise on a shared box is one-sided (cache
    eviction, scheduler contention only ever add time), so min-of-k is
    the stable estimator of each engine's true cost.
    """
    solvers = {name: factory(cfg) for name, cfg in configs.items()}
    best = {name: float("inf") for name in configs}
    for solver in solvers.values():
        for _ in range(WARMUP_CYCLES):
            solver.run_cycle()
    for _ in range(ROUNDS):
        for name, solver in solvers.items():
            t0 = time.perf_counter()
            for _ in range(CYCLES_PER_ROUND):
                solver.run_cycle()
            best[name] = min(
                best[name],
                (time.perf_counter() - t0) / CYCLES_PER_ROUND,
            )

    rows = {}
    for name, solver in solvers.items():
        # counters bill calibrated FLOPs per cycle; scale one cycle's
        # work onto the best-round wall clock for the roofline figure
        solver.counters.reset()
        solver.run_cycle()
        timeline = Timeline()
        timeline.add(kind="span", name="solve", cat="compute", t0=0.0,
                     t1=best[name])
        add_perf_counters(timeline, solver.counters, at=best[name])
        m = metrics(timeline, cpu=CPU_ITANIUM2_1600, ncpus=1)
        rows[name] = {
            "engine": solver.engine.name,
            "s_per_cycle": best[name],
            "achieved_gflops": m["achieved_gflops"],
            "roofline_fraction": m["roofline_fraction"],
            "q": solver.q,
        }
    return rows


def test_kernel_engines():
    configs = {
        "numpy": KernelConfig(),
        "batched": KernelConfig(engine="batched"),
    }

    solvers = {"nsu3d": nsu3d_factory, "cart3d": cart3d_factory}
    rows = {}
    for sname, factory in solvers.items():
        for ename, row in measure(factory, configs).items():
            rows[(sname, ename)] = row

    # acceptance: states agree within the parity window, and batched is
    # not markedly slower than the reference
    for sname in solvers:
        ref, fast = rows[(sname, "numpy")], rows[(sname, "batched")]
        assert fast["s_per_cycle"] < SLOWDOWN_LIMIT * ref["s_per_cycle"], (
            f"{sname}: batched {fast['s_per_cycle']:.3f} s/cycle against "
            f"numpy {ref['s_per_cycle']:.3f}"
        )
        assert np.allclose(fast["q"], ref["q"], **PARITY)

    lines = [
        "Kernel engines: s/cycle and roofline fraction "
        "(1x Itanium2 1.6 GHz)",
        "engines: numpy (reference), batched",
        "",
        f"{'solver':<8} {'engine':<9} {'s/cycle':>9} {'GFLOP/s':>9} "
        f"{'roofline':>9} {'speedup':>8}",
    ]
    data = {}
    for (sname, ename), row in rows.items():
        ref = rows[(sname, "numpy")]
        speedup = ref["s_per_cycle"] / row["s_per_cycle"]
        lines.append(
            f"{sname:<8} {ename:<9} {row['s_per_cycle']:>9.3f} "
            f"{row['achieved_gflops']:>9.3f} "
            f"{row['roofline_fraction']:>9.4f} {speedup:>7.2f}x"
        )
        data[f"{sname}_{ename}"] = {
            k: row[k]
            for k in ("s_per_cycle", "achieved_gflops", "roofline_fraction")
        }
    save_result("kernel_engines", "\n".join(lines), data=data)
