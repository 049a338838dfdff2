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
performance model; :class:`HybridProcess` is the master-thread exchange
of one process, sending real SimMPI messages from a rank program (pure
MPI is the layout in which every process owns one partition, so it has
no intra-process copies and sends one message per neighbour and
direction).  A distributed solve does not run it: the lockstep
exchanger (:class:`~repro.runtime.backends.LockstepExchanger`) holds
every process's rows in one array, moves them by index and charges the
messages :meth:`HybridProcess.schedule` lists; this class is the
message-level oracle it is tested against.
"""

from __future__ import annotations

from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import ConfigurationError, ExchangeLifecycleError
from ..telemetry.spans import get_tracer, span as _span
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


_UNBOUND = nullcontext()

#: What a process sends a neighbour it ships no rows to: every
#: neighbour pair trades one message per direction, so both sides can
#: post and wait blindly.
_NOTHING = np.empty(0)


def _on_rank(comm):
    """Tracer binding for one rank's half of an exchange: its ``comm.*``
    spans land on that rank's track and clock, whoever steps it."""
    tracer = get_tracer()
    if not tracer.enabled:
        return _UNBOUND
    return tracer.bind(rank=comm.rank, clock=lambda: comm.clock)


class PendingHybrid:
    """The wait-and-unpack half of a :class:`HybridProcess` exchange
    whose pack, send and intra-process phases have run.  ``finish`` runs
    exactly once, on the posting rank's tracer track; ``rank`` names
    that rank when a batch of pendings fails to finish."""

    def __init__(self, comm, tag: int, unpack: Callable[[], None]):
        self.comm, self.rank, self.tag = comm, comm.rank, tag
        self._unpack = unpack
        self.done = False

    def finish(self) -> None:
        if self.done:
            raise ExchangeLifecycleError(
                f"exchange finish called twice (rank {self.rank}, tag "
                f"{self.tag}); each exchange must be completed exactly once"
            )
        self.done = True
        with _on_rank(self.comm):
            self._unpack()


@dataclass
class HybridProcess:
    """One MPI process owning one or several thread partitions (fig. 7b).

    ``plans`` maps a *global partition id* to its :class:`ExchangePlan`
    over global partition ids; ``proc_of`` maps global partition ids to
    MPI process ranks.  Intra-process neighbors are served by direct
    copies; inter-process traffic is aggregated into one buffer per
    remote process, sent by the master (the calling thread).  Pure MPI
    is the layout where every process owns one partition: no copies,
    one message per neighbour and direction.
    """

    rank: int
    part_ids: tuple
    plans: dict
    proc_of: dict

    @cached_property
    def real_window(self) -> bool:
        """Whether an overlapped exchange keeps its window open: true
        when every process owns one partition (post now, unpack at
        ``finish``).  When some own several, the intra-process copies
        already run while messages are in transit, so the exchange
        completes eagerly.  A property of the layout, so every process
        of a world agrees."""
        return len(set(self.proc_of.values())) == len(self.proc_of)

    def exchange_copy(self, comm, arrays: dict, tag: int = 0) -> None:
        """Owner->ghost update of per-partition arrays: ``arrays`` maps
        partition id -> local array (owned+ghost layout of its plan)."""
        self.post(comm, arrays, tag).finish()

    def exchange_add(self, comm, arrays: dict, tag: int = 1) -> None:
        """Ghost->owner accumulation: every partition ships its
        ghost-slot accumulations to the partition owning those vertices,
        where they are **added**; shipped ghost slots are zeroed."""
        self.post(comm, arrays, tag, add=True).finish()

    def post(self, comm, arrays: dict, tag: int,
             add: bool = False) -> PendingHybrid:
        """Pack, send and intra-process half of an exchange; the
        returned pending's ``finish`` waits and unpacks — remote adds
        always after the intra-process ones, so an owner row sums in one
        order.  Buffer layout is canonical — sorted by (destination
        partition, source partition) — so the receiver unpacks
        positionally.
        """
        sends, local, recvs = self._routes[add]
        # finish lands in the arrays posted now, whatever the caller's
        # dict holds by then
        arrays = dict(arrays)
        with _on_rank(comm):
            with _span("comm.exchange.pack", cat="comm", tag=tag,
                       remote_procs=len(sends)):
                reqs = {q: comm.irecv(q, tag) for q, _chunks in sends}
                # master thread: one buffer per remote process
                for q, chunks in sends:
                    bufs = []
                    for src, slots in chunks:
                        bufs.append(np.ascontiguousarray(arrays[src][slots]))
                        if add:
                            arrays[src][slots] = 0.0
                    if len(bufs) == 1:
                        buf = bufs[0]
                    else:  # several chunks, or nothing to ship
                        buf = np.concatenate(bufs) if bufs else _NOTHING
                    comm.isend(buf, q, tag)
            # OpenMP phase, overlapped with MPI transit
            with _span("comm.exchange.copy", cat="comm", tag=tag):
                for pid, ghost, nbr, owned in local:
                    if add:
                        arrays[nbr][owned] += arrays[pid][ghost]
                        arrays[pid][ghost] = 0.0
                    else:
                        arrays[pid][ghost] = arrays[nbr][owned]

        # master waits, threads unpack (same canonical order as the sender)
        def unpack() -> None:
            with _span("comm.exchange.unpack", cat="comm", tag=tag):
                for q, rows in recvs:
                    buf = reqs[q].wait()
                    for dst, slots, lo, hi in rows:
                        # a slot never repeats within one (dst, src) list
                        # (build_halos gives every ghost one owner and one
                        # slot, a tier-1 property), so a plain indexed add
                        # is exact
                        if add:
                            arrays[dst][slots] += buf[lo:hi]
                        else:
                            arrays[dst][slots] = buf[lo:hi]

        return PendingHybrid(comm, tag, unpack)

    def schedule(self, add: bool) -> tuple:
        """``(sends, waits)`` of one direction as row counts, ``(q,
        rows)`` per remote process: the messages :meth:`post` sends, in
        posting order, and those it waits for, in wait order — for a
        caller that charges the messages without moving them."""
        sends, _local, recvs = self._routes[add]
        return (
            tuple((q, sum(len(slots) for _src, slots in chunks))
                  for q, chunks in sends),
            tuple((q, rows[-1][3] if rows else 0) for q, rows in recvs),
        )

    @cached_property
    def _routes(self) -> tuple:
        """The static schedule of both directions, indexed by ``add``:
        resolved once per process, not once per exchange."""
        return (self._route("owned_slots", "ghost_slots"),
                self._route("ghost_slots", "owned_slots"))

    def _route(self, out_side: str, in_side: str) -> tuple:
        """``(sends, local, recvs)`` of one direction.  ``sends`` lists
        ``(q, ((src, slots), ...))`` per remote process in ascending
        order; ``local`` the intra-process ``(pid, ghost slots, nbr,
        owned slots)`` pairs; ``recvs`` the ``(q, ((dst, slots, lo,
        hi), ...))`` unpack lists in wait order — processes that ship
        rows first, then the empty ones, each ascending."""
        remote = sorted({
            self.proc_of[nbr]
            for pid in self.part_ids for nbr in self.plans[pid].neighbors
        } - {self.rank})
        sends = tuple(
            (q, tuple(
                (src, getattr(self.plans[src], out_side)[dst])
                for dst, src in sorted(
                    (nbr, pid) for pid, nbr in self._crossing(q, out_side)
                )
            ))
            for q in remote
        )
        recvs = []
        for q in remote:
            rows, lo = [], 0
            for dst, src in sorted(self._crossing(q, in_side)):
                slots = getattr(self.plans[dst], in_side)[src]
                rows.append((dst, slots, lo, lo + len(slots)))
                lo += len(slots)
            recvs.append((q, tuple(rows)))
        recvs.sort(key=lambda route: not route[1])
        local = tuple(
            (pid, self.plans[pid].ghost_slots[nbr],
             nbr, self.plans[nbr].owned_slots[pid])
            for pid, nbr in self._crossing(self.rank, "ghost_slots")
        )
        return sends, local, tuple(recvs)

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
