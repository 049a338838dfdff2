"""NSU3D-style unstructured RANS solver (paper section III)."""

from .agglomerate import agglomerate, build_hierarchy, coarsen_context
from .context import FlowContext, context_from_dual
from .distance import wall_distance
from .gradients import green_gauss, vorticity_magnitude
from .linesolve import FrozenOperator, block_thomas, smooth
from .multigrid import fas_cycle, restrict_residual, restrict_solution
from .residual import apply_wall_bc, mask_wall_rows, residual, residual_norm
from .parallel import make_parallel_nsu3d
from .solver import NSU3DSolver
from .turbulence import eddy_viscosity, source_terms

__all__ = [
    "make_parallel_nsu3d",
    "NSU3DSolver",
    "FlowContext",
    "context_from_dual",
    "wall_distance",
    "green_gauss",
    "vorticity_magnitude",
    "residual",
    "residual_norm",
    "apply_wall_bc",
    "mask_wall_rows",
    "FrozenOperator",
    "smooth",
    "block_thomas",
    "agglomerate",
    "coarsen_context",
    "build_hierarchy",
    "fas_cycle",
    "restrict_solution",
    "restrict_residual",
    "eddy_viscosity",
    "source_terms",
]
