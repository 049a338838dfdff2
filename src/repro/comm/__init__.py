"""SimMPI — in-process message passing with virtual time, halo exchange,
hybrid MPI/OpenMP strategies, and communication-pattern benchmarks."""

from .exchange import (
    ExchangePlan,
    LocalHalo,
    build_halos,
    communication_graph,
)
from .hybrid import (
    HybridProcess,
    hybrid_efficiency,
    master_thread_time,
    partition_owners,
    thread_parallel_time,
)
from .patterns import (
    graph_degrees,
    max_degree,
    natural_ring_time,
    random_ring_slowdown,
    random_ring_time,
)
from .simmpi import Comm, CommStats, Request, SimMPI, TraceEvent

__all__ = [
    "SimMPI",
    "Comm",
    "CommStats",
    "Request",
    "TraceEvent",
    "ExchangePlan",
    "LocalHalo",
    "build_halos",
    "communication_graph",
    "HybridProcess",
    "partition_owners",
    "hybrid_efficiency",
    "master_thread_time",
    "thread_parallel_time",
    "graph_degrees",
    "max_degree",
    "natural_ring_time",
    "random_ring_time",
    "random_ring_slowdown",
]
