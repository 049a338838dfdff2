"""Cart3D-style inviscid cut-cell Cartesian solver (paper section V)."""

from .levels import Cart3DLevel, TransferOp, build_levels
from .multigrid import fas_cycle
from .residual import FLUX_FUNCTIONS, ls_gradient_setup, residual, spectral_radius
from .rk import RK_COEFFS, local_time_step, residual_norm, rk_smooth
from .parallel import make_parallel_cart3d
from .solver import Cart3DSolver, ConvergenceHistory

__all__ = [
    "make_parallel_cart3d",
    "Cart3DSolver",
    "ConvergenceHistory",
    "Cart3DLevel",
    "TransferOp",
    "build_levels",
    "fas_cycle",
    "residual",
    "spectral_radius",
    "ls_gradient_setup",
    "FLUX_FUNCTIONS",
    "rk_smooth",
    "local_time_step",
    "residual_norm",
    "RK_COEFFS",
]
