"""Graph and space-filling-curve partitioning (the paper's METIS role).

``metis`` is a from-scratch multilevel k-way partitioner; ``graph``
provides CSR graphs and the implicit-line contraction of figure 6(b);
``sfcpart`` is Cart3D's SFC segment partitioner with cut-cell weighting;
``matching`` is the greedy coarse/fine partition matcher; ``quality``
quantifies cut, balance and surface-to-volume.

Solver code does not use this package directly: the distributed-solve
stack in :mod:`repro.runtime` wraps it behind the ``Partitioner``
protocol (lint rule R008 enforces this statically).
"""

from .graph import Graph, contract_lines, project_partition
from .matching import (
    greedy_match,
    match_coarse_partition,
    overlap_fraction,
    overlap_matrix,
)
from .metis import partition_graph
from .quality import (
    boundary_counts,
    edge_cut,
    ideal_cubic_surface_to_volume,
    imbalance,
    part_weights,
    surface_to_volume,
)
from .sfcpart import CUT_CELL_WEIGHT, cell_weights, partition_bounds, sfc_partition

__all__ = [
    "Graph",
    "contract_lines",
    "project_partition",
    "partition_graph",
    "sfc_partition",
    "cell_weights",
    "partition_bounds",
    "CUT_CELL_WEIGHT",
    "greedy_match",
    "match_coarse_partition",
    "overlap_matrix",
    "overlap_fraction",
    "edge_cut",
    "imbalance",
    "part_weights",
    "boundary_counts",
    "surface_to_volume",
    "ideal_cubic_surface_to_volume",
]
