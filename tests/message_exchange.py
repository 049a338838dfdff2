"""The message-level halo exchange: the oracle the lockstep exchanger
is held to.

:func:`post` is the paper's fig. 7b master-thread exchange of one
:class:`~repro.comm.hybrid.HybridProcess` over ``{pid: array}`` dicts,
sending real SimMPI messages along the process's routes: the master
packs one buffer per remote process, posts every receive and then every
send, and the intra-process copies run while the messages are in
transit; the returned pending's ``finish`` waits and unpacks.  It runs
on the endpoints of a lockstep world
(:meth:`~repro.comm.simmpi.SimMPI.lockstep`): every rank posts, then
every rank finishes.  :class:`MessageExchanger` does that for a whole
world behind the exchanger surface the kernels see (``copy``, ``add``,
``start_copy``, ``charge``).
"""

from collections.abc import Callable
from contextlib import nullcontext

import numpy as np

from repro.comm.hybrid import HybridProcess, partition_owners
from repro.errors import ExchangeLifecycleError
from repro.runtime.backends import Landed
from repro.telemetry.spans import get_tracer, span as _span

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
    """The wait-and-unpack half of a :func:`post` exchange whose pack,
    send and intra-process phases have run.  ``finish`` runs exactly
    once, on the posting rank's tracer track; ``rank`` names that rank
    when a batch of pendings fails to finish."""

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


def post(process: HybridProcess, comm, arrays: dict, tag: int,
         add: bool = False) -> PendingHybrid:
    """Pack, send and intra-process half of ``process``'s exchange on
    its endpoint ``comm``; the returned pending's ``finish`` waits and
    unpacks — remote adds always after the intra-process ones, so an
    owner row sums in one order.  Buffer layout is canonical — sorted by
    (destination partition, source partition) — so the receiver unpacks
    positionally.  ``arrays`` may hold other processes' partitions too;
    only ``process``'s are touched.
    """
    sends, local, recvs = process._routes[add]
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


class Posted:
    """An exchange every rank has posted; ``finish`` finishes each
    rank's pending in rank order."""

    def __init__(self, pendings: list):
        self.pendings = pendings

    def finish(self) -> None:
        for pending in self.pendings:
            pending.finish()


class MessageExchanger:
    """Every rank's message-path exchange of a lockstep world over
    ``{pid: array}`` dicts, the partitions of ``plans`` spread over the
    world's ranks in contiguous blocks (one each is pure MPI).

    Constructing it starts a lockstep run of ``world``; ``comms`` are
    its endpoints and ``procs`` the ranks' :class:`HybridProcess`.
    ``start_copy`` keeps the window open when every rank owns one
    partition, and completes eagerly otherwise
    (:attr:`HybridProcess.real_window`).
    """

    def __init__(self, world, plans: dict):
        proc_of = partition_owners(len(plans), world.nranks)
        self.comms = world.lockstep()
        self.procs = [
            HybridProcess(
                rank=comm.rank,
                part_ids=tuple(p for p in sorted(plans)
                               if proc_of[p] == comm.rank),
                plans=plans, proc_of=proc_of,
            )
            for comm in self.comms
        ]
        #: when True, ``charge`` bills compute time to the virtual
        #: clocks, as the lockstep exchanger does
        self.charging = False

    def post(self, arrays: dict, tag: int, add: bool = False) -> Posted:
        return Posted([post(proc, comm, arrays, tag, add)
                       for proc, comm in zip(self.procs, self.comms)])

    def copy(self, arrays: dict, tag: int = 0) -> None:
        self.post(arrays, tag).finish()

    def add(self, arrays: dict, tag: int = 1) -> None:
        self.post(arrays, tag, add=True).finish()

    def start_copy(self, arrays: dict, tag: int = 0):
        if self.procs[0].real_window:
            return self.post(arrays, tag)
        self.copy(arrays, tag)
        return Landed(arrays)

    def charge(self, flops: dict) -> None:
        if not self.charging:
            return
        for proc, comm in zip(self.procs, self.comms):
            total = float(sum(flops[pid] for pid in proc.part_ids))
            if total > 0.0:
                comm.compute(flops=total)
