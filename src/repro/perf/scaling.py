"""Paper-scale virtual scalability runs (figures 14-22).

Combines the work models, communication models and the Columbia machine
description into per-cycle times for the paper's exact configurations:
the 72M-point NSU3D case and the 25M-cell Cart3D SSLV case, from 32 to
2016/2008 CPUs, on NUMAlink or InfiniBand, pure MPI or hybrid
MPI/OpenMP, with any number of multigrid levels.

Speedups are computed exactly as the paper does ("assuming a perfect
speedup on 128 CPUs" for NSU3D; on 32 CPUs for Cart3D), and TFLOP/s from
the useful FLOPs per cycle divided by wall time — MADDs counted as two,
as with pfmon.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush

import numpy as np

from ..machine.interconnect import INFINIBAND, NUMALINK4, FabricModel
from ..machine.limits import infiniband_feasible
from ..machine.placement import JobPlacement
from ..machine.topology import CPUS_PER_BRICK, CPUS_PER_NODE, node_slots
from .commmodel import (
    CommScenario,
    collective_time,
    halo_exchange_time,
    intergrid_transfer_time,
)
from .workmodel import CART3D_WORK, NSU3D_WORK, SolverWorkModel

#: Hybrid thread-serialization overhead: with T OpenMP threads per MPI
#: process, per-cycle compute inflates by ``c (T-1)^2`` (synchronization
#: plus the thread-sequential master-communication phase compounding).
#: Calibrated against figure 15: 0.984 efficiency at 2 threads, 0.872 at
#: 4 threads on NUMAlink.
HYBRID_THREAD_OVERHEAD = 0.0163

#: The paper's benchmark problems.
NSU3D_POINTS_72M = 72.0e6
CART3D_CELLS_25M = 25.0e6


@dataclass
class CycleBreakdown:
    """Per-cycle time decomposition for one configuration."""

    compute: float = 0.0
    halo_comm: float = 0.0
    intergrid_comm: float = 0.0
    collectives: float = 0.0
    useful_flops: float = 0.0

    @property
    def total(self) -> float:
        return self.compute + self.halo_comm + self.intergrid_comm + \
            self.collectives

    @property
    def comm_fraction(self) -> float:
        t = self.total
        return 0.0 if t == 0 else (t - self.compute) / t


def _scenario(ncpus: int, fabric: FabricModel, omp_threads: int,
              nboxes: int | None, openmp: bool = False) -> CommScenario:
    if nboxes is None:
        nboxes = max(1, -(-ncpus // CPUS_PER_NODE))  # ceil division
    placement = JobPlacement.pack(
        ncpus if ncpus % omp_threads == 0 else ncpus - ncpus % omp_threads,
        omp_threads=omp_threads,
        fabric=fabric,
        nboxes=nboxes,
    )
    return CommScenario(
        fabric=placement.effective_fabric(),
        nboxes=placement.nboxes,
        omp_threads=omp_threads,
        nranks=placement.nranks,
        openmp_global_address=openmp,
        spans_bricks=ncpus > CPUS_PER_BRICK if openmp else False,
    )


def cycle_time(
    nunits: float,
    ncpus: int,
    mg_levels: int = 1,
    fabric: FabricModel = NUMALINK4,
    omp_threads: int = 1,
    work: SolverWorkModel = NSU3D_WORK,
    cycle: str = "W",
    nboxes: int | None = None,
    openmp: bool = False,
    level_offset: int = 0,
) -> CycleBreakdown:
    """Time of one multigrid cycle of ``nunits`` points/cells on
    ``ncpus`` CPUs.

    ``level_offset`` starts the finest level deeper in the hierarchy
    (figure 19 runs the 2nd and 3rd grids *alone*: pass the coarse size
    as ``nunits`` with ``mg_levels=1``).
    """
    if cycle not in ("V", "W"):
        raise ValueError("cycle must be 'V' or 'W'")
    nranks = max(1, ncpus // omp_threads)
    scenario = _scenario(ncpus, fabric, omp_threads, nboxes, openmp)

    out = CycleBreakdown()
    n_l = nunits / work.coarsen_ratio**level_offset
    for level in range(mg_levels):
        visits = 2**level if cycle == "W" else 1
        per_cpu = n_l / ncpus
        per_rank = n_l / nranks
        rate = work.sustained_rate(per_cpu)
        imb = work.imbalance_factor(per_rank)
        hybrid = 1.0 + HYBRID_THREAD_OVERHEAD * (omp_threads - 1) ** 2
        host = scenario.fabric.host_factor(scenario.nboxes)
        out.compute += (
            visits * work.flops_per_unit * per_cpu / rate * imb * hybrid
            * host
        )
        out.useful_flops += visits * work.flops_per_unit * n_l
        out.halo_comm += (
            visits
            * work.exchanges_per_visit
            * halo_exchange_time(per_rank, work, scenario)
        )
        if level + 1 < mg_levels:
            coarse_per_rank = per_rank / work.coarsen_ratio
            out.intergrid_comm += visits * intergrid_transfer_time(
                coarse_per_rank, work, scenario
            )
        out.collectives += visits * collective_time(nranks, scenario)
        n_l /= work.coarsen_ratio
    return out


@dataclass
class ScalingSeries:
    """One curve of a scaling figure."""

    label: str
    cpus: list = field(default_factory=list)
    seconds_per_cycle: list = field(default_factory=list)
    useful_flops: list = field(default_factory=list)

    def speedup(self, base_cpus: int | None = None) -> list:
        """Paper convention: perfect speedup assumed at the first (or
        given) CPU count."""
        base = base_cpus if base_cpus is not None else self.cpus[0]
        i = self.cpus.index(base)
        t0 = self.seconds_per_cycle[i]
        return [base * t0 / t for t in self.seconds_per_cycle]

    def tflops(self) -> list:
        return [
            f / t / 1e12
            for f, t in zip(self.useful_flops, self.seconds_per_cycle)
        ]


def scaling_series(
    label: str,
    nunits: float,
    cpu_counts: list,
    work: SolverWorkModel,
    mg_levels: int = 1,
    fabric: FabricModel = NUMALINK4,
    omp_threads: int = 1,
    cycle: str = "W",
    openmp: bool = False,
    level_offset: int = 0,
    boxes_for: dict | None = None,
) -> ScalingSeries:
    """Sweep CPU counts for one configuration.

    ``boxes_for`` optionally pins the box count per CPU count (the paper
    packs <= 512 CPUs in one box, 508-1000 over two, etc.).
    """
    series = ScalingSeries(label=label)
    for ncpus in cpu_counts:
        nboxes = None if boxes_for is None else boxes_for.get(ncpus)
        b = cycle_time(
            nunits, ncpus, mg_levels=mg_levels, fabric=fabric,
            omp_threads=omp_threads, work=work, cycle=cycle,
            openmp=openmp, level_offset=level_offset, nboxes=nboxes,
        )
        series.cpus.append(ncpus)
        series.seconds_per_cycle.append(b.total)
        series.useful_flops.append(b.useful_flops)
    return series


# -- the paper's configurations ---------------------------------------------------

#: NSU3D runs on 128-2008 CPUs of the Vortex boxes (fig. 14b).
NSU3D_CPU_COUNTS = [128, 256, 502, 1004, 2008]

#: Cart3D runs on 32-2016 CPUs (figs. 20-22).
CART3D_CPU_COUNTS = [32, 64, 128, 256, 496, 508, 688, 1000, 1024, 1524, 2016]


def nsu3d_box_count(ncpus: int) -> int:
    """The paper spreads NSU3D jobs over the four Vortex boxes."""
    return max(1, -(-ncpus // CPUS_PER_NODE))


def infiniband_mpi_feasible(ncpus: int, omp_threads: int = 1,
                            nboxes: int | None = None) -> bool:
    """Whether a configuration exists under the eq. (1) limit (fig. 22's
    InfiniBand curve stops at 1524 CPUs)."""
    if nboxes is None:
        nboxes = nsu3d_box_count(ncpus)
    return infiniband_feasible(ncpus // omp_threads, nboxes)


def project_run_time(
    nunits: float,
    ncpus: int,
    cycles: int,
    mg_levels: int = 6,
    fabric: FabricModel = NUMALINK4,
    omp_threads: int = 1,
    work: SolverWorkModel = NSU3D_WORK,
) -> float:
    """Wall-clock of a full solve (section VI's 'under 30 minutes' and
    the 10^9-point, 4016-CPU projections)."""
    b = cycle_time(
        nunits, ncpus, mg_levels=mg_levels, fabric=fabric,
        omp_threads=omp_threads, work=work,
    )
    return cycles * b.total


@dataclass
class SchedulePlan:
    """Outcome of a fill simulation."""

    makespan_seconds: float
    mesh_seconds: float
    flow_seconds: float
    concurrent_cases: int
    assignments: list = field(default_factory=list)  # (job, node, start, end)


def schedule_fill(
    tree: list,
    nnodes: int = 1,
    mesh_seconds_per_instance: float = 60.0,
    flow_seconds_per_case: float = 600.0,
    cpus_per_case: int = 32,
) -> SchedulePlan:
    """Estimate the makespan of a database fill on ``nnodes`` boxes
    (section IV: "running as many cases simultaneously as memory
    permits ... several cases simultaneously on each 512 CPU node").

    ``tree`` is a :func:`~repro.database.jobs.build_job_tree` hierarchy.
    Meshing jobs for all geometry instances run concurrently (the paper
    executes them in parallel, bounded by the slots: mesh jobs are
    serial); flow jobs then pack the node CPU slots greedily, earliest
    free slot first.
    """
    total_slots = node_slots(cpus_per_case, nnodes)
    slots_per_node = CPUS_PER_NODE // cpus_per_case
    n_instances = len(tree)
    mesh_waves = -(-n_instances // total_slots) if n_instances else 0
    mesh_time = mesh_waves * mesh_seconds_per_instance
    heap = [(mesh_time, slot) for slot in range(total_slots)]
    assignments = []
    finish = mesh_time
    for geo in tree:
        for job in geo.flow_jobs:
            start, slot = heappop(heap)
            end = start + flow_seconds_per_case
            node = slot // slots_per_node
            assignments.append((job, node, start, end))
            heappush(heap, (end, slot))
            finish = max(finish, end)
    return SchedulePlan(
        makespan_seconds=finish,
        mesh_seconds=mesh_time,
        flow_seconds=finish - mesh_time,
        concurrent_cases=total_slots,
        assignments=assignments,
    )
