"""Unified distributed-solve runtime (paper sections III & V).

The single partition -> halo -> multigrid -> cycle-driver stack both
solvers execute: :class:`Partitioner` adapters over the two
decomposition styles, solver-agnostic :class:`DistributedDomain` /
:class:`DomainSet` construction with multigrid-aware halo widening, the
generic FAS cycle driver with the documented coarse-CFL policy, and the
:class:`DistributedSolveDriver` cycle loop with pluggable comm backends
and opt-in overlapped exchange (fig. 7).

Solver packages contribute only physics kernels and a
``make_parallel_*`` function that assembles partition, hierarchy and
kernels into a driver; lint rule R008 keeps all distributed execution
behind this package.
"""

from .backends import (
    HybridExchanger,
    LockstepComm,
    LockstepExchanger,
    PendingGroup,
    PlanExchanger,
    ProcessExchanger,
    make_exchanger,
)
from .config import BACKENDS, RuntimeConfig
from .domain import (
    DistributedDomain,
    DomainHierarchy,
    DomainSet,
    LevelSpec,
    build_domain_hierarchy,
    build_domain_set,
    derive_coarse_partition,
)
from .driver import DistributedSolveDriver, SolverKernels, run_rank_cycles
from .multigrid import LevelOps, effective_cfl, fas_cycle
from .partitioners import MetisLinePartitioner, Partitioner, SFCPartitioner
from .process import ProcessComm, ProcessPool, SharedLayout, WorkerSpec
from .sanitizer import GhostSanitizer, GuardedArray, SanitizedPendingGroup

__all__ = [
    "BACKENDS",
    "RuntimeConfig",
    "Partitioner",
    "MetisLinePartitioner",
    "SFCPartitioner",
    "DistributedDomain",
    "DomainSet",
    "DomainHierarchy",
    "LevelSpec",
    "build_domain_set",
    "build_domain_hierarchy",
    "derive_coarse_partition",
    "LevelOps",
    "effective_cfl",
    "fas_cycle",
    "DistributedSolveDriver",
    "SolverKernels",
    "run_rank_cycles",
    "PlanExchanger",
    "HybridExchanger",
    "LockstepComm",
    "LockstepExchanger",
    "ProcessExchanger",
    "make_exchanger",
    "PendingGroup",
    "ProcessComm",
    "ProcessPool",
    "SharedLayout",
    "WorkerSpec",
    "GhostSanitizer",
    "GuardedArray",
    "SanitizedPendingGroup",
]
