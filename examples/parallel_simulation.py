"""Domain-decomposed solves on the simulated Columbia (paper section III).

Runs the real parallel solvers — NSU3D-style RANS with line-respecting
METIS partitions and ghost-vertex exchanges, Cart3D-style Euler on SFC
segments — inside SimMPI worlds placed on simulated Columbia boxes, and
compares the virtual communication clocks of the NUMAlink and
InfiniBand fabrics.

Run:  python examples/parallel_simulation.py
"""

import numpy as np

from repro import api
from repro.api import SimMPI
from repro.comm import random_ring_slowdown
from repro.machine import INFINIBAND, NUMALINK4, JobPlacement


def nsu3d_parallel():
    print("=== NSU3D domain decomposition over SimMPI ===")
    mesh = api.bump_channel(ni=14, nj=6, nk=10, wall_spacing=2e-3,
                            ratio=1.4, bump_height=0.03)
    solver = api.make_nsu3d_solver(mesh, mach=0.5, mg_levels=2,
                                   turbulence=False)
    ctx = solver.contexts[0]

    runner = api.make_parallel_nsu3d(solver, 8)
    split_lines = sum(
        len(np.unique(runner.part[line])) > 1 for line in ctx.lines
    )
    print(f"  {ctx.npoints} points over 8 ranks; "
          f"{split_lines} of {len(ctx.lines)} implicit lines split "
          f"(must be 0, fig. 6b)")

    for fabric in (NUMALINK4, INFINIBAND):
        placement = JobPlacement.pack(8, fabric=fabric, nboxes=2)
        world = SimMPI(8, placement=placement)
        q, history = runner.run(world, 5, cfl=8.0)
        stats = world.total_stats()
        print(f"  {fabric.name:>10}: residual {history[0]:.2e} -> "
              f"{history[-1]:.2e}; {stats.messages_sent} msgs, "
              f"{stats.bytes_sent / 1e6:.1f} MB, virtual makespan "
              f"{world.max_clock() * 1e3:.2f} ms")


def cart3d_parallel():
    print("=== Cart3D SFC decomposition over SimMPI ===")
    solver = api.make_cart3d_solver(
        api.Sphere(center=[0.5, 0.5, 0.5], radius=0.15),
        dim=2, base_level=4, max_level=6, mg_levels=2, mach=0.4,
    )
    runner = api.make_parallel_cart3d(solver, 8)
    print(f"  {solver.size} flow cells over 8 contiguous SFC segments")
    world = SimMPI(8, placement=JobPlacement.pack(8, nboxes=1))
    q, history = runner.run(world, 5, cfl=2.0)
    print(f"  residual {history[0]:.2e} -> {history[-1]:.2e}; "
          f"virtual makespan {world.max_clock() * 1e3:.2f} ms")


def ring_benchmark():
    print("=== Random Ring (reference [4]) on the simulated fabrics ===")
    for fabric in (NUMALINK4, INFINIBAND):
        slow = random_ring_slowdown(
            lambda f=fabric: SimMPI(
                16, placement=JobPlacement.pack(16, fabric=f, nboxes=4)
            ),
            nbytes=65536,
        )
        print(f"  {fabric.name:>10}: random-ring / natural-ring time = "
              f"{slow:.1f}x")


if __name__ == "__main__":
    nsu3d_parallel()
    print()
    cart3d_parallel()
    print()
    ring_benchmark()
