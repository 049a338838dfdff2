"""Serial FAS adapter for the Cart3D-style solver.

Cart3D uses "the same multigrid cycling strategies as NSU3D" (paper
section V, fig. 4) — and since this refactor they are literally the
same code: the cycle recursion, FAS forcing, one pre- and one
post-smoothing step per visit and the coarse-CFL rule live in
:mod:`repro.runtime.multigrid`, and this module supplies only the
Cart3D-specific :class:`LevelOps`: the 5-stage RK smoother, the
(optionally second-order fine-level) residual, the SFC-hierarchy
transfer operators, the physicality-guarded damped correction, and
:data:`COARSE_CFL_FRACTION`, which the distributed
:class:`~.parallel.Cart3DKernels` read as well.

Solution restriction is volume-weighted, residual restriction is a
plain sum over children, prolongation is injection along the
fine-to-coarse map — exactly the transfers the SFC hierarchy provides.
"""

from __future__ import annotations

import numpy as np

from ...runtime.multigrid import fas_cycle as _generic_fas_cycle
from ..gas import check_physical
from .residual import residual
from .rk import rk_smooth

#: Coarse levels run first order and need a reduced RK stability margin
#: (1.5 at the default ``cfl=2.0``) — see the rule in
#: :mod:`repro.runtime.multigrid`.
COARSE_CFL_FRACTION = 0.75


class _SerialCart3DOps:
    """Serial :class:`~repro.runtime.multigrid.LevelOps` over the SFC
    level hierarchy."""

    name = "cart3d"
    coarse_cfl_fraction = COARSE_CFL_FRACTION

    def __init__(self, levels, transfers, qinf, flux, order2, grad_setups):
        self.levels = levels
        self.transfers = transfers
        self.qinf = qinf
        self.flux = flux
        self.order2 = order2
        self.grad_setups = grad_setups
        self.nlevels = len(levels)

    def _order2(self, level: int) -> bool:
        return self.order2 and level == 0  # coarse levels run first order

    def _gs(self, level: int):
        if self.grad_setups and self._order2(level):
            return self.grad_setups[level]
        return None

    def clone(self, q):
        return q.copy()

    def smooth(self, level, q, forcing, cfl):
        return rk_smooth(
            self.levels[level], q, self.qinf, forcing=forcing, cfl=cfl,
            flux=self.flux, order2=self._order2(level),
            grad_setup=self._gs(level),
        )

    def defect(self, level, q, forcing):
        r = residual(
            self.levels[level], q, self.qinf, flux=self.flux,
            order2=self._order2(level), grad_setup=self._gs(level),
        )
        if forcing is not None:
            r = r - forcing
        return r

    def restrict_state(self, level, q):
        return self.transfers[level].restrict_solution(
            q, self.levels[level].vol, self.levels[level + 1].vol
        )

    def coarse_forcing(self, level, q_c0, defect):
        t = self.transfers[level]
        return self.defect(level + 1, q_c0, None) - t.restrict_residual(defect)

    def apply_correction(self, level, q, q_c, q_c0):
        dq = self.transfers[level].prolong(q_c - q_c0)
        cand = q + dq
        # guard: fall back to a damped correction if prolongation
        # produced an unphysical state (strong startup transients)
        scale = 1.0
        while not check_physical(cand) and scale > 1e-3:
            scale *= 0.5
            cand = q + scale * dq
        if check_physical(cand):
            q = cand
        return q


def fas_cycle(
    levels: list,
    transfers: list,
    q: np.ndarray,
    qinf: np.ndarray,
    forcing: np.ndarray | None = None,
    cycle: str = "W",
    cfl: float = 2.0,
    flux: str = "vanleer",
    order2: bool = False,
    grad_setups: list | None = None,
) -> np.ndarray:
    """One multigrid cycle from the fine level down; returns updated q."""
    ops = _SerialCart3DOps(levels, transfers, qinf, flux, order2,
                           grad_setups)
    return _generic_fas_cycle(
        ops, q, forcing=forcing, cycle=cycle, cfl=cfl,
    )
