"""Performance model: paper-scale virtual scalability runs.

Work models calibrated to the paper's measured anchors, fabric/comm cost
composition, the sweep drivers that regenerate figures 14-22, and the
section IV database-fill makespan planner (:func:`schedule_fill`).
"""

from .commmodel import (
    CROSS_BOX_LINK_FRACTION,
    INTERGRID_NEIGHBORS,
    CommScenario,
    collective_time,
    halo_exchange_time,
    intergrid_transfer_time,
)
from .report import (
    campaign_ledger_table,
    convergence_table,
    fill_summary_table,
    format_comparison,
    format_series_table,
    phase_table,
)
from .scaling import (
    CART3D_CELLS_25M,
    CART3D_CPU_COUNTS,
    HYBRID_THREAD_OVERHEAD,
    NSU3D_CPU_COUNTS,
    NSU3D_POINTS_72M,
    CycleBreakdown,
    ScalingSeries,
    SchedulePlan,
    cycle_time,
    infiniband_mpi_feasible,
    nsu3d_box_count,
    project_run_time,
    scaling_series,
    schedule_fill,
)
from .workmodel import (
    CART3D_WORK,
    NSU3D_WORK,
    SolverWorkModel,
    calibrate_nsu3d_flops,
)

__all__ = [
    "SolverWorkModel",
    "NSU3D_WORK",
    "CART3D_WORK",
    "calibrate_nsu3d_flops",
    "CommScenario",
    "halo_exchange_time",
    "intergrid_transfer_time",
    "collective_time",
    "CROSS_BOX_LINK_FRACTION",
    "INTERGRID_NEIGHBORS",
    "cycle_time",
    "CycleBreakdown",
    "ScalingSeries",
    "scaling_series",
    "NSU3D_POINTS_72M",
    "CART3D_CELLS_25M",
    "NSU3D_CPU_COUNTS",
    "CART3D_CPU_COUNTS",
    "HYBRID_THREAD_OVERHEAD",
    "nsu3d_box_count",
    "infiniband_mpi_feasible",
    "project_run_time",
    "SchedulePlan",
    "schedule_fill",
    "format_series_table",
    "format_comparison",
    "convergence_table",
    "fill_summary_table",
    "phase_table",
    "campaign_ledger_table",
]
