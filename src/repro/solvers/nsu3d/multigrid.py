"""Serial FAS adapter for the RANS solver (fig. 4).

The cycle itself — V/W recursion, FAS forcing, one pre- and one
post-smoothing step per visit, the coarse-CFL rule, per-level telemetry
spans — lives in :mod:`repro.runtime.multigrid`; this module supplies
the NSU3D-specific :class:`LevelOps`: the line-implicit smoother, the
(optionally turbulent/viscous) residual, volume-weighted agglomeration
transfers with strong wall-row handling, the limited/floored
correction, and :data:`COARSE_CFL_FRACTION`, which the distributed
:class:`~.parallel.NSU3DKernels` read as well.

"The multigrid W-cycle has been found to produce superior convergence
rates and to be more robust, and is thus used exclusively in the NSU3D
calculations."  Within a W-cycle the coarsest of ``n`` levels is visited
``2^(n-1)`` times per fine-grid visit — the communication amplification
at the heart of the paper's InfiniBand results (figs. 16-19).
"""

from __future__ import annotations

import numpy as np

from ...kernels import get_engine
from ...runtime.multigrid import fas_cycle as _generic_fas_cycle
from ..gas import apply_positivity_floors
from .linesolve import limit_correction, smooth
from .residual import apply_wall_bc, mask_wall_rows, residual

#: Coarse levels tolerate the fine CFL — see the rule in
#: :mod:`repro.runtime.multigrid`.
COARSE_CFL_FRACTION = 1.0


def restrict_solution(q, cluster, vol_f, vol_c):
    """Volume-weighted restriction along ``cluster`` — the index map, or
    the level's prebuilt :meth:`FlowContext.restriction` operator."""
    out = np.zeros((len(vol_c), q.shape[1]), dtype=np.float64)
    get_engine().scatter_add(out, cluster, q * vol_f[:, None])
    return out / vol_c[:, None]


def restrict_residual(r, cluster, ncoarse):
    out = np.zeros((ncoarse, r.shape[1]), dtype=np.float64)
    get_engine().scatter_add(out, cluster, r)
    return out


class _SerialNSU3DOps:
    """Serial :class:`~repro.runtime.multigrid.LevelOps` over the
    agglomerated context hierarchy."""

    name = "nsu3d"
    coarse_cfl_fraction = COARSE_CFL_FRACTION

    def __init__(self, contexts, maps, qinf, order2, turbulence, viscous):
        self.contexts = contexts
        self.maps = maps
        self.qinf = qinf
        self.order2 = order2
        self.turbulence = turbulence
        self.viscous = viscous
        self.nlevels = len(contexts)

    def _order2(self, level: int) -> bool:
        return self.order2 and level == 0  # coarse levels run first order

    def _restriction(self, level: int):
        return self.contexts[level].restriction(
            self.maps[level], self.contexts[level + 1].npoints
        )

    def clone(self, q):
        return q.copy()

    def smooth(self, level, q, forcing, cfl):
        return smooth(
            self.contexts[level], q, self.qinf, forcing=forcing, cfl=cfl,
            order2=self._order2(level),
            turbulence=self.turbulence, viscous=self.viscous,
        )

    def defect(self, level, q, forcing):
        r = residual(
            self.contexts[level], q, self.qinf, order2=self._order2(level),
            turbulence=self.turbulence, viscous=self.viscous,
        )
        if forcing is not None:
            r = r - forcing
        return r

    def restrict_state(self, level, q):
        ctx = self.contexts[level]
        coarse = self.contexts[level + 1]
        # the restricted base state must satisfy the coarse level's own
        # strong wall condition, or the correction q_c - q_c0 acquires a
        # spurious momentum component at every wall agglomerate
        return apply_wall_bc(
            coarse,
            restrict_solution(q, self._restriction(level), ctx.volumes,
                              coarse.volumes),
        )

    def coarse_forcing(self, level, q_c0, defect):
        coarse = self.contexts[level + 1]
        return mask_wall_rows(
            coarse,
            self.defect(level + 1, q_c0, None)
            - restrict_residual(defect, self._restriction(level),
                                coarse.npoints),
        )

    def apply_correction(self, level, q, q_c, q_c0):
        dq = (q_c - q_c0)[self.maps[level]]
        return apply_positivity_floors(
            apply_wall_bc(self.contexts[level], limit_correction(q, dq))
        )


def fas_cycle(
    contexts: list,
    maps: list,
    q: np.ndarray,
    qinf: np.ndarray,
    forcing: np.ndarray | None = None,
    cycle: str = "W",
    cfl: float = 10.0,
    order2: bool = False,
    turbulence: bool = True,
    viscous: bool = True,
) -> np.ndarray:
    """One FAS cycle from the fine level down; returns the updated
    state."""
    ops = _SerialNSU3DOps(contexts, maps, qinf, order2, turbulence, viscous)
    return _generic_fas_cycle(
        ops, q, forcing=forcing, cycle=cycle, cfl=cfl,
    )
