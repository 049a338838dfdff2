"""Packing database-fill jobs onto Columbia nodes (paper §IV).

"In typical database fills, hundreds or thousands of cases need to be
run.  Under these circumstances, computational efficiency dictates
running as many cases simultaneously as memory permits ... The 3-10
million cell cases typically fit in memory on 32-128 CPUs, making it
possible to run several cases simultaneously on each 512 CPU node of
the system."

The scheduler is a simple makespan estimator: geometry (meshing) jobs
run in parallel across instances; flow jobs fill node CPU slots
greedily.  It answers the planning questions the paper's §IV poses —
how long a 10^4-case fill occupies N Columbia nodes — and drives the
database-fill example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush

from ..machine.topology import CPUS_PER_NODE, node_slots
from .jobs import GeometryJob


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
    """Estimate the makespan of a database fill on ``nnodes`` boxes.

    Meshing jobs for all geometry instances run concurrently (the paper
    executes them in parallel); flow jobs then pack the node CPU slots.
    """
    total_slots = node_slots(cpus_per_case, nnodes)
    slots_per_node = CPUS_PER_NODE // cpus_per_case

    # meshing: bounded by available slots too (mesh jobs are serial)
    n_instances = len(tree)
    mesh_waves = -(-n_instances // total_slots) if n_instances else 0
    mesh_time = mesh_waves * mesh_seconds_per_instance

    # flow jobs: greedy earliest-slot packing
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
