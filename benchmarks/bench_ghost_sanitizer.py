"""Chaos-style gate for the GhostSanitizer: zero false positives.

Runs the full overlap matrix — 1/2/4 ranks x V/W cycles x overlap
on/off, both solvers — with the sanitizer armed (NaN canaries in the
ghost rows + read-trapping guard views during every open window) and
asserts that

* no :class:`~repro.errors.GhostRaceError` fires (the shipped kernels
  honour the overlap contract, dynamically as well as statically), and
* the sanitized states match the unsanitized runs exactly — arming the
  guard perturbs nothing.

The summary table (``results/ghost_sanitizer.*``) records the matrix
and the sanitizer's wall-time overhead per configuration, which is the
number that tells you whether leaving ``sanitize=True`` on in CI-sized
runs is affordable.
"""

import time

import numpy as np
from conftest import save_result

from repro import api
from repro.api import RuntimeConfig, SimMPI
from repro.mesh.cartesian import Sphere
from repro.mesh.unstructured import bump_channel
from repro.solvers.cart3d import Cart3DSolver
from repro.solvers.nsu3d import NSU3DSolver

NCYCLES = 2
RANKS = (1, 2, 4)
CYCLES = ("V", "W")
OVERLAPS = (False, True)


def _matrix(name, make_parallel, cfl):
    rows = []
    for nranks in RANKS:
        for cycle in CYCLES:
            for overlap in OVERLAPS:
                qg = {}
                wall = {}
                for sanitize in (False, True):
                    par = make_parallel(
                        RuntimeConfig(overlap=overlap, sanitize=sanitize)
                    )
                    t0 = time.perf_counter()
                    qg[sanitize], hist = par.run(
                        SimMPI(nranks), NCYCLES, cfl=cfl, cycle=cycle
                    )
                    wall[sanitize] = time.perf_counter() - t0
                    assert np.isfinite(hist).all()
                # zero false positives AND bit-identical results
                assert np.array_equal(qg[False], qg[True]), (
                    f"{name} ranks={nranks} cycle={cycle} "
                    f"overlap={overlap}: sanitizer perturbed the state"
                )
                rows.append({
                    "solver": name,
                    "ranks": nranks,
                    "cycle": cycle,
                    "overlap": overlap,
                    "wall_plain_s": wall[False],
                    "wall_sanitized_s": wall[True],
                    "overhead_x": wall[True] / max(wall[False], 1e-12),
                })
    return rows


def test_ghost_sanitizer_chaos_matrix():
    mesh = bump_channel(ni=8, nj=4, nk=6, wall_spacing=5e-3, ratio=1.3,
                        bump_height=0.03)
    ns = NSU3DSolver(mesh=mesh, mach=0.5, mg_levels=2, turbulence=False,
                     cfl=8.0)
    sphere = Sphere(center=[0.5, 0.5, 0.5], radius=0.15)
    c3 = Cart3DSolver(sphere, dim=2, base_level=4, max_level=5,
                      mg_levels=3, mach=0.4)

    rows = _matrix(
        "nsu3d",
        lambda config: api.make_parallel_nsu3d(ns, 4, config=config),
        cfl=8.0,
    )
    rows += _matrix(
        "cart3d",
        lambda config: api.make_parallel_cart3d(c3, 4, config=config),
        cfl=2.0,
    )

    lines = [
        "GhostSanitizer chaos matrix: 1/2/4 ranks x V/W x overlap "
        "on/off, both solvers",
        "zero GhostRaceError raised; sanitized state == plain state "
        "(bitwise) in every cell",
        "",
        f"{'solver':8} {'ranks':>5} {'cycle':>5} {'overlap':>7} "
        f"{'plain[s]':>9} {'sanitized[s]':>12} {'overhead':>8}",
    ]
    for r in rows:
        lines.append(
            f"{r['solver']:8} {r['ranks']:>5} {r['cycle']:>5} "
            f"{str(r['overlap']):>7} {r['wall_plain_s']:>9.3f} "
            f"{r['wall_sanitized_s']:>12.3f} {r['overhead_x']:>7.2f}x"
        )
    mean_overhead = float(np.mean([r["overhead_x"] for r in rows]))
    lines.append("")
    lines.append(f"mean sanitizer overhead: {mean_overhead:.2f}x")
    save_result(
        "ghost_sanitizer",
        "\n".join(lines),
        data={"rows": rows, "mean_overhead_x": mean_overhead},
    )
