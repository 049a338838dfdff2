"""Hybrid MPI/OpenMP communication strategies (paper section III, fig. 7).

In NSU3D's hybrid mode each MPI process owns several partitions, one
OpenMP thread per partition.  Intra-process partitions communicate by
direct (shared-memory) copies.  For inter-process traffic the paper
considers two programming models:

* **Thread-parallel** (fig. 7a): every thread issues its own MPI calls,
  addressing remote threads via the send/recv tag.  Previous experience
  (reference [12]) showed this scales poorly because the MPI calls lock
  and serialize at the thread level.
* **Master-thread** (fig. 7b): threads pack per-remote-process buffers in
  parallel; the master thread alone posts all receives, then all sends;
  while messages are in transit, all threads perform the intra-process
  OpenMP copies; the master then waits and the threads unpack in
  parallel.  This yields fewer, larger messages, at the price of a
  thread-sequential MPI phase — the cost visible in fig. 15 (efficiency
  0.984 at 2 threads, 0.872 at 4 threads on NUMAlink).

The paper uses the master-thread strategy exclusively; both are modelled
here.  :func:`hybrid_efficiency` is the analytic form used by the
performance model; :class:`HybridProcess` executes the actual data
movement for the SimMPI-hosted solvers.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, ExchangeLifecycleError
from ..telemetry.spans import span as _span
from .exchange import ExchangePlan

#: Seconds per byte for thread-side buffer packing/unpacking (memcpy-rate
#: calibration constant: ~2 GB/s effective touch rate).
PACK_SECONDS_PER_BYTE = 1.0 / 2.0e9

#: Serialization penalty multiplier when every thread issues locking MPI
#: calls (the thread-parallel strategy of fig. 7a, reference [12]).
THREAD_PARALLEL_LOCK_PENALTY = 2.5


def master_thread_time(
    mpi_time: float,
    omp_copy_time: float,
    pack_bytes: float,
    nthreads: int,
) -> float:
    """Wall time of one master-thread hybrid exchange.

    ``mpi_time`` is the (thread-sequential) time the master spends in MPI
    sends/receives; ``omp_copy_time`` the intra-process ghost copies
    executed by all threads while messages are in flight (the overlap the
    paper engineered); ``pack_bytes`` the total buffer traffic packed and
    unpacked thread-parallel.
    """
    if nthreads < 1:
        raise ConfigurationError("nthreads must be >= 1")
    pack = pack_bytes * PACK_SECONDS_PER_BYTE / nthreads
    unpack = pack
    return pack + max(mpi_time, omp_copy_time) + unpack


def thread_parallel_time(
    mpi_time: float,
    omp_copy_time: float,
    pack_bytes: float,
    nthreads: int,
) -> float:
    """Wall time of the thread-parallel strategy (fig. 7a).

    Threads send concurrently but the MPI library locks, so the MPI phase
    serializes with a penalty; there are ``nthreads`` times more, smaller
    messages, so per-message latency is not amortized.
    """
    if nthreads < 1:
        raise ConfigurationError("nthreads must be >= 1")
    pack = pack_bytes * PACK_SECONDS_PER_BYTE / nthreads
    locked_mpi = mpi_time * (
        1.0 + (THREAD_PARALLEL_LOCK_PENALTY - 1.0) * (nthreads > 1)
    )
    return pack + locked_mpi + omp_copy_time + pack


def hybrid_efficiency(
    nthreads: int,
    comm_fraction: float,
    overlap: float = 0.55,
) -> float:
    """Parallel efficiency of a hybrid run relative to pure MPI.

    With ``T`` threads per process, a fraction ``comm_fraction`` of the
    pure-MPI cycle is communication.  During the master-thread MPI phase
    the other ``T - 1`` threads idle except for the overlapped OpenMP
    copies; ``overlap`` is the fraction of MPI time hidden behind them.
    The efficiency loss is the exposed serial fraction, Amdahl-style:

        eff(T) = 1 / (1 + comm_fraction * (1 - overlap) * (T - 1))

    Calibrated against fig. 15: with the NSU3D 72M-point case's measured
    comm fraction at 128 CPUs this gives ~0.98 at T=2 and ~0.87 at T=4.
    """
    if nthreads < 1:
        raise ConfigurationError("nthreads must be >= 1")
    if not 0.0 <= comm_fraction <= 1.0:
        raise ConfigurationError("comm_fraction must be in [0, 1]")
    exposed = comm_fraction * (1.0 - overlap) * (nthreads - 1)
    return 1.0 / (1.0 + exposed)


class PendingHybrid:
    """The unpack half of a :class:`HybridProcess` exchange whose pack,
    send and intra-process phases have run; ``finish`` exactly once."""

    def __init__(self, unpack: Callable[[], None]):
        self._unpack = unpack
        self.done = False

    def finish(self) -> None:
        if self.done:
            raise ExchangeLifecycleError(
                "PendingHybrid.finish called twice; each exchange must "
                "be completed exactly once"
            )
        self.done = True
        self._unpack()


@dataclass
class HybridProcess:
    """One MPI process owning several thread partitions (fig. 7b).

    ``plans`` maps a *global partition id* to its :class:`ExchangePlan`
    over global partition ids; ``proc_of`` maps global partition ids to
    MPI process ranks.  Intra-process neighbors are served by direct
    copies; inter-process traffic is aggregated into one buffer per
    remote process, sent by the master (the calling thread).
    """

    rank: int
    part_ids: tuple
    plans: dict
    proc_of: dict

    def exchange_copy(self, comm, arrays: dict, tag: int = 0) -> None:
        """Hybrid owner->ghost update of per-partition arrays.

        ``arrays`` maps partition id -> local array (owned+ghost layout
        of that partition's plan).
        """
        pending = self.start_copy(comm, arrays, tag)
        pending.finish()

    def exchange_add(self, comm, arrays: dict, tag: int = 1) -> None:
        """Hybrid ghost->owner accumulation of per-partition arrays.

        The mirror of :meth:`exchange_copy`: every partition ships its
        ghost-slot accumulations to the partition owning those vertices,
        where they are **added**; shipped ghost slots are zeroed.
        """
        pending = self.start_add(comm, arrays, tag)
        pending.finish()

    def start_copy(self, comm, arrays: dict,
                   tag: int = 0) -> PendingHybrid:
        """Pack, send and intra-process half of :meth:`exchange_copy`;
        the returned pending's ``finish`` waits and unpacks."""
        return self._start(comm, arrays, tag, add=False)

    def start_add(self, comm, arrays: dict, tag: int = 1) -> PendingHybrid:
        """Pack, send and intra-process half of :meth:`exchange_add`;
        ``finish`` unpack-adds the remote contributions — always after
        the intra-process ones, so an owner row sums in one order."""
        return self._start(comm, arrays, tag, add=True)

    def _start(self, comm, arrays: dict, tag: int,
               add: bool) -> PendingHybrid:
        """Both exchanges, by direction: a copy ships owned rows into
        the mirroring ghost slots, an add ships ghost rows (zeroing
        them) onto the owned slots they mirror.  Buffer layout is
        canonical — sorted by (destination partition, source partition)
        — so the receiving process unpacks positionally.

        When ``comm`` traces (``SimMPI(..., trace=True)``), every
        pack/copy/unpack work item records its buffer accesses tagged
        with a per-call phase token and a per-item thread token: within
        one phase the work items are conceptually thread-parallel OpenMP
        iterations, so the trace race detector treats them as unordered
        even though this simulation runs them sequentially.
        """
        trace = getattr(comm, "trace_access", None)
        # per-call phase serial: accesses from different exchange calls
        # are program-ordered, so they must not share phase tokens
        token = getattr(self, "_xchg_serial", 0)
        self._xchg_serial = token + 1
        remote = self._remote_procs()
        out_side, in_side = (
            ("ghost_slots", "owned_slots") if add
            else ("owned_slots", "ghost_slots")
        )

        with _span("comm.hybrid.pack", cat="comm", tag=tag,
                   remote_procs=len(remote)):
            reqs = {q: comm.irecv(q, tag) for q in remote}
            # master thread: pack one buffer per remote process and send
            for q in remote:
                chunks = []
                for item, (dst, src) in enumerate(sorted(
                    (nbr, pid) for pid, nbr in self._crossing(q, out_side)
                )):
                    slots = getattr(self.plans[src], out_side)[dst]
                    chunks.append(np.ascontiguousarray(arrays[src][slots]))
                    if trace is not None:
                        trace(f"part{src}", slots, write=add,
                              phase=f"pack@{token}", thread=item)
                    if add:
                        arrays[src][slots] = 0.0
                buf = (
                    np.concatenate(chunks)
                    if chunks
                    else np.empty((0,), dtype=np.float64)
                )
                comm.isend(buf, q, tag)
        # OpenMP phase, overlapped with MPI transit: intra-process moves
        with _span("comm.hybrid.copy", cat="comm", tag=tag):
            for item, (pid, nbr) in enumerate(
                self._crossing(self.rank, "ghost_slots")
            ):
                ghost = self.plans[pid].ghost_slots[nbr]
                # never repeats a slot (see PendingExchange._land)
                owned = self.plans[nbr].owned_slots[pid]
                if trace is not None:
                    for part, slots, write in (
                        ((pid, ghost, True), (nbr, owned, True)) if add
                        else ((nbr, owned, False), (pid, ghost, True))
                    ):
                        trace(f"part{part}", slots, write=write,
                              phase=f"copy@{token}", thread=item)
                if add:
                    arrays[nbr][owned] += arrays[pid][ghost]
                    arrays[pid][ghost] = 0.0
                else:
                    arrays[pid][ghost] = arrays[nbr][owned]

        # master waits, threads unpack (same canonical order as the sender)
        def unpack() -> None:
            with _span("comm.hybrid.unpack", cat="comm", tag=tag):
                for q in remote:
                    buf = reqs[q].wait()
                    offset = 0
                    for item, (dst, src) in enumerate(
                        sorted(self._crossing(q, in_side))
                    ):
                        slots = getattr(self.plans[dst], in_side)[src]
                        n = len(slots)
                        if trace is not None:
                            trace(f"part{dst}", slots, write=True,
                                  phase=f"unpack@{token}:{q}", thread=item)
                        if add:
                            arrays[dst][slots] += buf[offset : offset + n]
                        else:
                            arrays[dst][slots] = buf[offset : offset + n]
                        offset += n

        return PendingHybrid(unpack)

    def _crossing(self, q: int, side: str) -> list:
        """(own partition, partition on process ``q``) pairs whose plans
        have ``side`` slots for each other."""
        return [
            (pid, nbr)
            for pid in self.part_ids
            for nbr in self.plans[pid].neighbors
            if self.proc_of[nbr] == q
            and nbr in getattr(self.plans[pid], side)
        ]

    def _remote_procs(self) -> list:
        out = set()
        for pid in self.part_ids:
            for nbr in self.plans[pid].neighbors:
                q = self.proc_of[nbr]
                if q != self.rank:
                    out.add(q)
        return sorted(out)


def partition_owners(nparts: int, nprocs: int) -> dict:
    """Contiguous block assignment of partitions to MPI processes."""
    if nprocs < 1 or nparts < nprocs:
        raise ConfigurationError("need at least one partition per process")
    base, extra = divmod(nparts, nprocs)
    owner = {}
    pid = 0
    for proc in range(nprocs):
        count = base + (1 if proc < extra else 0)
        for _ in range(count):
            owner[pid] = proc
            pid += 1
    return owner
