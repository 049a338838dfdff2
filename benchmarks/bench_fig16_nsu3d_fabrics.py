"""Figures 16(a)/(b): NUMAlink vs InfiniBand, single grid vs 6-level MG.

Paper: the single-grid case shows "only slight degradation in overall
performance between the NUMAlink and the InfiniBand interconnects" (and
superlinear speedup on both); for six-level multigrid "the degradation
in performance due to the use of InfiniBand over NUMAlink is dramatic,
particularly at the higher processor counts".  At 2008 CPUs InfiniBand
admits at most 1524 pure-MPI ranks (eq. 1), so only the 2-thread hybrid
configuration exists there.
"""

import numpy as np
from conftest import run_once, save_result

from repro import api
from repro.api import RuntimeConfig, SimMPI
from repro.core import figure_16a, figure_16b
from repro.mesh.unstructured import bump_channel
from repro.solvers.gas import NVAR_EULER
from repro.solvers.nsu3d import NSU3DSolver
from repro.solvers.nsu3d import fas_cycle as nsu3d_fas_cycle

CFL = 8.0
NCYCLES = 3


def test_fig16a_single_grid(benchmark):
    result = run_once(benchmark, figure_16a)
    save_result("fig16a", result.summary())
    numa = result.series["NUMAlink:1thr"].speedup(128)
    ib2 = result.series["Infiniband:2thr"].speedup(128)
    # both superlinear; fabrics nearly indistinguishable
    assert numa[-1] > 2008
    assert ib2[-1] > 2008 * 0.95
    assert abs(ib2[-1] - numa[-1]) / numa[-1] < 0.10


def test_fig16b_six_level_multigrid(benchmark):
    result = run_once(benchmark, figure_16b)
    save_result("fig16b", result.summary())
    numa = result.series["NUMAlink:1thr"].speedup(128)
    ib2 = result.series["Infiniband:2thr"].speedup(128)
    ib1 = result.series["Infiniband:1thr"].speedup(128)
    # dramatic InfiniBand degradation at high CPU counts
    assert ib2[-1] < 0.85 * numa[-1]
    # pure-MPI InfiniBand at 2008 exceeds eq. (1) and collapses to 10GigE
    assert ib1[-1] < 0.5 * numa[-1]
    # low CPU counts remain comparable
    assert abs(ib2[1] - numa[1]) / numa[1] < 0.05


def _turbulent_backend_sweep():
    """The turbulent solve over the reproduction's three comm fabrics:
    SimMPI with one partition per rank, the hybrid master-thread model
    (4 partitions on 2 ranks, fig. 7b) — both stepped in lockstep on
    this thread — and the real multiprocessing worker pool exchanging
    halos through shared memory."""
    mesh = bump_channel(ni=8, nj=4, nk=6, wall_spacing=5e-3, ratio=1.3,
                        bump_height=0.03)
    s = NSU3DSolver(mesh=mesh, mach=0.5, mg_levels=2, turbulence=True,
                    cfl=CFL)
    ref = np.tile(s.qinf, (s.contexts[0].npoints, 1))
    for _ in range(NCYCLES):
        ref = nsu3d_fas_cycle(
            s.contexts, s.maps, ref, s.qinf, cycle="W", cfl=CFL,
            turbulence=True,
        )

    rows = {}

    def record(label, qg, hist):
        rows[label] = {
            "meanflow_maxdiff": float(
                np.abs(qg[:, :NVAR_EULER] - ref[:, :NVAR_EULER]).max()
            ),
            "sa_maxdiff": float(
                np.abs(qg[:, NVAR_EULER:] - ref[:, NVAR_EULER:]).max()
            ),
            "history": [float(h) for h in hist],
        }

    pn = api.make_parallel_nsu3d(s, 4)
    record("sim:4ranks", *pn.run(SimMPI(4), NCYCLES, cfl=CFL, cycle="W"))
    pn = api.make_parallel_nsu3d(s, 4)
    record("hybrid:4on2", *pn.run(SimMPI(2), NCYCLES, cfl=CFL, cycle="W"))
    with api.make_parallel_nsu3d(
        s, 2, config=RuntimeConfig(backend="process"),
    ) as pn:
        record("process:2workers", *pn.solve(NCYCLES, cfl=CFL, cycle="W"))
    return s, rows


def test_fig16_turbulent_fabrics(benchmark):
    """The turbulent twin of the fabric comparison: the same SA solve
    on all three comm backends, partition- and backend-independent to
    the turbulent parity gate."""
    s, rows = run_once(benchmark, _turbulent_backend_sweep)
    lines = [
        "== fig16_turbulent: turbulent distributed NSU3D across comm "
        "backends ==",
        f"  mesh: {s.contexts[0].npoints} points, mg_levels=2, "
        f"{NCYCLES} W-cycles, SA coupled (nvar=6)",
        "  backend            meanflow maxdiff   SA maxdiff    "
        "final residual",
    ]
    for label, row in rows.items():
        lines.append(
            f"  {label:<17}  {row['meanflow_maxdiff']:>16.2e}  "
            f"{row['sa_maxdiff']:>11.2e}  {row['history'][-1]:>14.6e}"
        )
        assert row["meanflow_maxdiff"] < 1e-12
        assert row["sa_maxdiff"] < 1e-10
    # one algorithm, one history — whatever carries the bytes
    h0 = rows["sim:4ranks"]["history"]
    for label in ("hybrid:4on2", "process:2workers"):
        assert np.allclose(rows[label]["history"], h0,
                           rtol=1e-8, atol=1e-12)
    text = "\n".join(lines)
    save_result("fig16_turbulent", text, data={"backends": rows})
