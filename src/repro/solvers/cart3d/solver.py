"""Cart3DSolver — the user-facing inviscid analysis facade.

Bundles meshing (or a user mesh), the multigrid hierarchy, the RK/FAS
iteration and force integration into the object the examples, database
machinery and benchmarks drive.  Mirrors the paper's solver module: a
cell-centered upwind finite-volume Euler scheme with multigrid
accelerated 5-stage Runge-Kutta smoothing on SFC-coarsened Cartesian
meshes (section V).
"""

from __future__ import annotations

import numpy as np

from ...kernels import get_engine, use_engine
from ...machine.counters import PerfCounters
from ...mesh.cartesian import CartesianMesh
from ...mesh.cartesian.geometry import ImplicitSolid
from ..gas import NVAR_EULER, freestream
from ..interface import ConvergenceHistory
from .levels import build_levels
from .multigrid import fas_cycle
from .residual import ls_gradient_setup, residual
from .rk import residual_norm

#: Calibrated FLOP counts per cell per residual evaluation / RK cycle —
#: fed to the pfmon-style counters and the performance model.
FLOPS_PER_CELL_RESIDUAL = 420.0
FLOPS_PER_CELL_RK_CYCLE = 5 * FLOPS_PER_CELL_RESIDUAL + 180.0

__all__ = ["Cart3DSolver", "ConvergenceHistory"]


class Cart3DSolver:
    """Inviscid cut-cell Cartesian flow solver with multigrid.

    Parameters mirror the paper's setup: ``mg_levels=4`` is the SSLV
    baseline ("The baseline solution algorithm used 4 levels of
    multigrid"); ``mg_levels=1`` is the single-grid comparator of
    figure 21.  ``hierarchy`` is a prebuilt :func:`build_levels` pair —
    wind-independent, so the cases of one geometry instance share one.
    """

    def __init__(
        self,
        solid: ImplicitSolid,
        mesh: CartesianMesh | None = None,
        dim: int = 3,
        base_level: int = 3,
        max_level: int = 5,
        mg_levels: int = 4,
        mach: float = 0.5,
        alpha_deg: float = 0.0,
        beta_deg: float = 0.0,
        flux: str = "vanleer",
        cfl: float = 2.0,
        order2: bool = False,
        curve: str = "hilbert",
        counters: PerfCounters | None = None,
        hierarchy: tuple[list, list] | None = None,
    ):
        self.levels, self.transfers = hierarchy or build_levels(
            solid, mesh=mesh, dim=dim, base_level=base_level,
            max_level=max_level, mg_levels=mg_levels, curve=curve,
        )
        self.qinf = freestream(mach, alpha_deg, beta_deg, nvar=NVAR_EULER)
        self.mach = mach
        self.alpha_deg = alpha_deg
        self.beta_deg = beta_deg
        self.flux = flux
        self.cfl = cfl
        self.order2 = order2
        self.counters = counters if counters is not None else PerfCounters()
        self.engine = get_engine()
        self.grad_setups = (
            [ls_gradient_setup(self.levels[0])] if order2 else None
        )
        self.q = np.tile(self.qinf, (self.levels[0].nflow, 1))
        self.history = ConvergenceHistory()

    @property
    def mg_levels(self) -> int:
        return len(self.levels)

    @property
    def size(self) -> int:
        """Unified mesh-size accessor (:class:`SolverProtocol`): flow cells."""
        return self.levels[0].nflow

    @property
    def ndof(self) -> int:
        """Paper: 'solves five equations for each cell in the domain'."""
        return self.size * NVAR_EULER

    def run_cycle(self, cycle: str = "W") -> float:
        """One multigrid cycle; returns the post-cycle residual norm."""
        with self.counters.region("mg_cycle"), use_engine(self.engine):
            self.q = fas_cycle(
                self.levels, self.transfers, self.q, self.qinf,
                cycle=cycle, cfl=self.cfl, flux=self.flux,
                order2=self.order2, grad_setups=self.grad_setups,
            )
            work = sum(
                lvl.nflow * FLOPS_PER_CELL_RK_CYCLE *
                (2 ** min(i, 5) if cycle == "W" else 1)
                for i, lvl in enumerate(self.levels)
            )
            self.counters.add_flops(work)
        r = self.residual_norm()
        self.history.residuals.append(r)
        self.history.forces.append(self.forces())
        return r

    def solve(
        self, ncycles: int = 100, tol_orders: float = 6.0, cycle: str = "W"
    ) -> ConvergenceHistory:
        """Iterate until the residual drops ``tol_orders`` decades or the
        cycle budget runs out."""
        r0 = None
        for _ in range(ncycles):
            r = self.run_cycle(cycle=cycle)
            if r0 is None:
                r0 = max(r, 1e-300)
            if r <= r0 * 10.0 ** (-tol_orders):
                break
        return self.history

    # -- outputs ------------------------------------------------------------

    def forces(self) -> dict:
        """Pressure force integration over the embedded walls.

        Only surface pressures, forces and moments are stored during
        database fills (paper section V) — this is that record.
        """
        from ..gas import pressure

        level = self.levels[0]
        if len(level.wall_cell) == 0:
            zero = {k: 0.0 for k in ("fx", "fy", "fz", "cl", "cd", "cm")}
            return zero
        p = pressure(self.q[level.wall_cell])
        pinf = pressure(self.qinf[None, :])[0]
        force = ((p - pinf)[:, None] * level.wall_normal).sum(axis=0)

        # moment about the wall-centroid (pitching, about y)
        centers = level.cut.mesh.centers()[
            level.cut.flow_cells[level.wall_cell]
        ]
        if centers.shape[1] == 2:  # 2-D meshes live in the z=const plane
            centers = np.column_stack(
                [centers, np.full(len(centers), 0.5, dtype=np.float64)]
            )
        ref = centers.mean(axis=0)
        arm = centers - ref
        df = (p - pinf)[:, None] * level.wall_normal
        moment = np.cross(arm, df).sum(axis=0)

        qdyn = 0.5 * float(self.qinf[0]) * self.mach**2
        sref = np.linalg.norm(level.wall_normal, axis=1).sum() / 6.0
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

    def surface_pressures(self) -> tuple[np.ndarray, np.ndarray]:
        """(wall face centers, pressures) — the other database payload."""
        from ..gas import pressure

        level = self.levels[0]
        centers = level.cut.mesh.centers()[
            level.cut.flow_cells[level.wall_cell]
        ]
        return centers, pressure(self.q[level.wall_cell])

    def residual_norm(self) -> float:
        with use_engine(self.engine):
            return residual_norm(
                self.levels[0], self.q, self.qinf, flux=self.flux,
                order2=self.order2,
                grad_setup=self.grad_setups[0] if self.grad_setups else None,
            )

    def level_residual(self, lvl: int) -> np.ndarray:
        """Raw residual on one level (used by the parallel driver's
        consistency tests)."""
        with use_engine(self.engine):
            return residual(
                self.levels[lvl],
                self.q if lvl == 0
                else np.tile(self.qinf, (self.levels[lvl].nflow, 1)),
                self.qinf,
                flux=self.flux,
            )
