"""Owned rows only: a decomposed NSU3D level inverts the point blocks of
the rows its partitions own, and its ghost rows wait for the next copy.

Two checks.  A count: the rows a ``sim`` x4 cycle hands the engine's
``block_factor`` and ``thomas_factor`` equal a serial cycle's.  And
poison: every row the owned-only pass skips is NaN the moment the pass
returns (:class:`PoisonedNSU3DKernels`).  A NaN that anything read
before the next copy overwrote it would reach an owned row, so owned
rows and histories bit-equal to the unpoisoned solve prove the skip on
each layout.
"""

import numpy as np
import pytest

from repro import api
from repro.kernels import NumpyEngine
from repro.runtime import RuntimeConfig
from repro.solvers.nsu3d.parallel import NSU3DKernels, _stack

CFL = 8.0


class _PoisonedOperator:
    """A frozen operator whose solution is NaN at every ghost row."""

    def __init__(self, operator, ghost):
        self.operator, self.ghost = operator, ghost

    def solve(self, rhs):
        dq = self.operator.solve(rhs)
        dq[self.ghost] = np.nan
        return dq


class PoisonedNSU3DKernels(NSU3DKernels):
    """NSU3D kernels whose owned-only pass, the frozen operator's solve,
    fills the ghost rows it skips with NaN.  Picklable by name: process
    workers import this module."""

    def _operator(self, X, stack, q, cfl):
        return _PoisonedOperator(super()._operator(X, stack, q, cfl),
                                 stack.ghost)


def twin():
    """The harness NSU3D workload in small: SA, three multigrid levels,
    implicit lines on the fine one."""
    mesh = api.bump_channel(ni=8, nj=4, nk=6, wall_spacing=5e-3, ratio=1.3,
                            bump_height=0.03)
    return api.make_nsu3d_solver(mesh, mach=0.5, mg_levels=3,
                                 turbulence=True, cfl=CFL)


class TestFactoredRows:
    @pytest.mark.parametrize("overlap", [False, True])
    def test_sim4_cycle_factors_serial_rows(self, count_calls, overlap):
        points = count_calls(NumpyEngine, "block_factor")
        lines = count_calls(NumpyEngine, "thomas_factor")

        def rows():
            """Point blocks and line stations factored since the last
            call: the ``diag`` argument's leading axes."""
            counted = (sum(len(diag) for _, diag in points),
                       sum(diag.shape[0] * diag.shape[1]
                           for _, _, diag, _ in lines))
            points.clear()
            lines.clear()
            return counted

        serial = twin()
        serial.run_cycle()
        serial_rows = rows()
        par = api.make_parallel_nsu3d(
            twin(), 4, config=RuntimeConfig(backend="sim", overlap=overlap),
        )
        par.solve(1, cfl=CFL)
        assert rows() == serial_rows
        assert serial_rows[1] > 0
        # the pin bites: every level's stack carries ghost rows
        for level, ctx in zip(par.hierarchy.levels, serial.contexts):
            doms = dict(enumerate(level.domains))
            assert len(_stack(doms).ghost) > ctx.npoints


LAYOUTS = {
    "sim4": (4, dict(backend="sim")),
    "sim4-overlap": (4, dict(backend="sim", overlap=True)),
    "hybrid2x4": (4, dict(backend="hybrid", nranks=2)),
    "process2": (2, dict(backend="process")),
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_poisoned_ghost_rows_leave_owned_rows_bit_equal(layout):
    nparts, config = LAYOUTS[layout]
    solver = twin()
    runs = []
    for kernels in (NSU3DKernels, PoisonedNSU3DKernels):
        with api.make_parallel_nsu3d(
            solver, nparts, config=RuntimeConfig(**config),
        ) as par:
            par.kernels = kernels(solver.qinf, turbulence=solver.turbulence)
            q, history = par.solve(2, cfl=CFL)
        runs.append((q.tobytes(), [float(r).hex() for r in history]))
    assert runs[0] == runs[1]
