"""Figure 14(b): NSU3D speedup and TFLOP/s, 128-2008 CPUs, NUMAlink.

Paper values: superlinear speedups at 2008 CPUs (2395 single grid, 2250
four-level, 2044 six-level); 3.4 / 3.1 / 2.95 / 2.8 TFLOP/s for
single/4/5/6-level; 31.3 s per 6-level W-cycle at 128 CPUs and 1.95 s at
2008 ("the flow solution can be obtained in under 30 minutes").

The paper's fig-14 runs are RANS (the 72M-point mesh solves the coupled
SA system — the work model's nvar=6 comes from there).  The
``fig14b_turbulent`` twin backs the virtual curves with *real* turbulent
distributed runs at laptop scale: the layout-generic runtime decomposes
the 6-variable SA solver across 1/2/4 ranks and must match the serial
solver at every rank count.
"""

import numpy as np
import pytest
from conftest import run_once, save_result

from repro import api
from repro.api import SimMPI
from repro.core import figure_14b
from repro.mesh.unstructured import bump_channel
from repro.solvers.gas import NVAR_EULER
from repro.solvers.nsu3d import NSU3DSolver
from repro.solvers.nsu3d import fas_cycle as nsu3d_fas_cycle

CFL = 8.0
NCYCLES = 3


@pytest.fixture(scope="module")
def fig(benchmark=None):
    return figure_14b()


def test_fig14b_scaling(benchmark):
    result = run_once(benchmark, figure_14b)
    save_result("fig14b", result.summary())

    series = result.series
    sp = {mg: s.speedup(128) for mg, s in series.items()}
    tf = {mg: s.tflops() for mg, s in series.items()}

    # superlinear speedups at 2008 CPUs, ordered single > 4 > 5 > 6 level
    assert sp[1][-1] > 2008
    assert sp[1][-1] > sp[4][-1] > sp[5][-1] > sp[6][-1]
    # all multigrid variants still better than ideal
    assert sp[6][-1] > 2008 * 0.95
    # TFLOP/s in the vicinity of 3, ordered like the paper
    assert 2.5 < tf[6][-1] < 3.5
    assert tf[1][-1] > tf[4][-1] > tf[6][-1]
    # the two timing anchors
    t = series[6].seconds_per_cycle
    assert t[0] == pytest.approx(31.3, rel=0.02)
    assert t[-1] == pytest.approx(1.95, rel=0.05)


def _turbulent_rank_sweep():
    """Real turbulent (SA, 6-variable) distributed runs, 1/2/4 ranks."""
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
    for nparts in (1, 2, 4):
        pn = api.make_parallel_nsu3d(s, nparts)
        qg, hist = pn.run(SimMPI(nparts), NCYCLES, cfl=CFL, cycle="W")
        rows[nparts] = {
            "meanflow_maxdiff": float(
                np.abs(qg[:, :NVAR_EULER] - ref[:, :NVAR_EULER]).max()
            ),
            "sa_maxdiff": float(
                np.abs(qg[:, NVAR_EULER:] - ref[:, NVAR_EULER:]).max()
            ),
            "history": [float(h) for h in hist],
        }
    return s, rows


def test_fig14b_turbulent_scaling(benchmark):
    """The layout-generic runtime's turbulent row of fig 14(b): the SA
    solver decomposes across rank counts with partition-independent
    results (mean flow to reassociation tolerance; the SA column within
    1e-10 absolute — vorticity of a near-freestream field is
    cancellation noise, so distributed summation perturbs nu_tilde at
    ~1e-11 regardless of decomposition)."""
    s, rows = run_once(benchmark, _turbulent_rank_sweep)
    lines = [
        "== fig14b_turbulent: real turbulent distributed NSU3D, "
        "1/2/4 ranks ==",
        f"  mesh: {s.contexts[0].npoints} points, mg_levels=2, "
        f"{NCYCLES} W-cycles, SA coupled (nvar=6)",
        "  ranks  meanflow maxdiff   SA maxdiff    final residual",
    ]
    for nparts, row in rows.items():
        lines.append(
            f"  {nparts:>5}  {row['meanflow_maxdiff']:>16.2e}  "
            f"{row['sa_maxdiff']:>11.2e}  {row['history'][-1]:>14.6e}"
        )
        assert row["meanflow_maxdiff"] < 1e-12
        assert row["sa_maxdiff"] < 1e-10
    # the history is a function of the algorithm, not the decomposition
    h1 = rows[1]["history"]
    for nparts in (2, 4):
        assert np.allclose(rows[nparts]["history"], h1,
                           rtol=1e-8, atol=1e-12)
    text = "\n".join(lines)
    save_result("fig14b_turbulent", text, data={"ranks": rows})
