"""NSU3DSolver — the high-fidelity RANS analysis facade.

Assembles the full paper pipeline: hybrid mesh -> median-dual metrics ->
implicit-line extraction -> agglomerated multigrid hierarchy ->
line-implicit FAS W-cycles for the coupled 6-equation RANS+SA system.
This is the object the figure-14(a) convergence study drives.
"""

from __future__ import annotations


import numpy as np

from ...kernels import get_engine, use_engine
from ...machine.counters import PerfCounters
from ...mesh.unstructured import (
    HybridMesh,
    build_dual,
    extract_lines,
)
from ...mesh.unstructured.dual import DualMesh
from ..gas import NVAR_EULER, NVAR_RANS, freestream, pressure
from ..interface import ConvergenceHistory
from .agglomerate import build_hierarchy
from .context import context_from_dual
from .multigrid import fas_cycle
from .residual import apply_wall_bc, residual_norm

#: Calibrated FLOP counts per point per residual / implicit smoothing
#: step, fed to the pfmon-style counters and the performance model.
FLOPS_PER_POINT_RESIDUAL = 1800.0
FLOPS_PER_POINT_IMPLICIT = 2600.0

#: Per-cycle growth of the CFL from ``cfl_start`` up to ``cfl``.
CFL_RAMP = 1.5


class NSU3DSolver:
    """Unstructured RANS solver with line-implicit agglomeration multigrid.

    Parameters
    ----------
    mesh:
        A :class:`HybridMesh` (or pass ``dual`` directly).
    mach, alpha_deg, beta_deg:
        Flow condition (the paper's benchmark: M=0.75, 0deg incidence
        and sideslip).
    reynolds:
        Reynolds number per unit chord; sets the constant laminar
        viscosity ``mu = mach / reynolds``.
    mg_levels:
        Multigrid levels including the fine grid (paper: 4/5/6).
    turbulence:
        Couple the SA equation (6 unknowns/point) or run laminar (5).
    cfl, cfl_start:
        The CFL starts at ``cfl_start`` and grows by :data:`CFL_RAMP`
        per cycle up to ``cfl``.
    """

    def __init__(
        self,
        mesh: HybridMesh | None = None,
        dual: DualMesh | None = None,
        mach: float = 0.75,
        alpha_deg: float = 0.0,
        beta_deg: float = 0.0,
        reynolds: float = 1.0e5,
        mg_levels: int = 4,
        turbulence: bool = True,
        order2: bool = False,
        cfl: float = 20.0,
        cfl_start: float = 1.0,
        use_lines: bool = True,
        counters: PerfCounters | None = None,
    ):
        if dual is None:
            if mesh is None:
                raise ValueError("pass mesh or dual")
            dual = build_dual(mesh)
        lines = extract_lines(dual) if use_lines else []
        mu_lam = mach / reynolds
        fine = context_from_dual(dual, mu_lam=mu_lam, lines=lines)
        self.contexts, self.maps = build_hierarchy(fine, mg_levels)
        self.nvar = NVAR_RANS if turbulence else NVAR_EULER
        self.turbulence = turbulence
        self.order2 = order2
        self.qinf = freestream(
            mach, alpha_deg, beta_deg, nvar=self.nvar, nu_lam=mu_lam
        )
        self.mach = mach
        self.alpha_deg = alpha_deg
        self.cfl_max = cfl
        self.cfl = cfl_start
        self.counters = counters if counters is not None else PerfCounters()
        self.engine = get_engine()
        self.q = apply_wall_bc(
            fine, np.tile(self.qinf, (fine.npoints, 1))
        )
        self.history = ConvergenceHistory()

    @property
    def mg_levels(self) -> int:
        return len(self.contexts)

    @property
    def size(self) -> int:
        """Unified mesh-size accessor (:class:`SolverProtocol`): grid points."""
        return self.contexts[0].npoints

    @property
    def ndof(self) -> int:
        """Six degrees of freedom per grid point (paper section VI)."""
        return self.size * self.nvar

    def run_cycle(self, cycle: str = "W") -> float:
        with self.counters.region("mg_cycle"), use_engine(self.engine):
            self.q = fas_cycle(
                self.contexts, self.maps, self.q, self.qinf, cycle=cycle,
                cfl=self.cfl, order2=self.order2,
                turbulence=self.turbulence,
            )
            work = sum(
                c.npoints
                * (FLOPS_PER_POINT_RESIDUAL + FLOPS_PER_POINT_IMPLICIT)
                * (2 ** min(i, 5) if cycle == "W" else 1)
                for i, c in enumerate(self.contexts)
            )
            self.counters.add_flops(work)
        self.cfl = min(self.cfl * CFL_RAMP, self.cfl_max)
        r = self.residual_norm()
        self.history.residuals.append(r)
        self.history.forces.append(self.forces())
        return r

    def solve(
        self, ncycles: int = 100, tol_orders: float = 6.0, cycle: str = "W"
    ) -> ConvergenceHistory:
        r0 = None
        for _ in range(ncycles):
            r = self.run_cycle(cycle=cycle)
            if r0 is None:
                r0 = max(r, 1e-300)
            if r <= r0 * 10.0 ** (-tol_orders):
                break
        return self.history

    def forces(self) -> dict:
        """Wall pressure force integration (friction omitted — recorded
        as a substitution in DESIGN.md; drag here is pressure drag).

        Returns the same coefficient keys as the Cart3D side
        (``fx fy fz cl cd cm``) so database records are solver-agnostic.
        """
        ctx = self.contexts[0]
        if len(ctx.wall_vert) == 0:
            return {k: 0.0 for k in ("fx", "fy", "fz", "cl", "cd", "cm")}
        p = pressure(self.q[ctx.wall_vert])
        pinf = pressure(self.qinf[None, :])[0]
        df = (p - pinf)[:, None] * ctx.wall_normal
        force = df.sum(axis=0)
        centers = ctx.points[ctx.wall_vert]
        arm = centers - centers.mean(axis=0)
        moment = np.cross(arm, df).sum(axis=0)
        qdyn = 0.5 * self.mach**2
        sref = np.abs(ctx.wall_normal[:, 2]).sum()
        a = np.radians(self.alpha_deg)
        drag_dir = np.array([np.cos(a), 0.0, np.sin(a)])
        lift_dir = np.array([-np.sin(a), 0.0, np.cos(a)])
        denom = max(qdyn * sref, 1e-300)
        return {
            "fx": float(force[0]),
            "fy": float(force[1]),
            "fz": float(force[2]),
            "cd": float(force @ drag_dir) / denom,
            "cl": float(force @ lift_dir) / denom,
            "cm": float(moment[1]) / denom,
        }

    def residual_norm(self) -> float:
        with use_engine(self.engine):
            return residual_norm(
                self.contexts[0], self.q, self.qinf, order2=self.order2,
                turbulence=self.turbulence,
            )
