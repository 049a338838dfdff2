"""Pluggable comm backends for the distributed solve driver.

Solver kernels operate on per-partition state dicts (``{pid: array}``)
and talk to one small Exchanger surface — ``copy``, ``add``,
``start_copy`` and ``charge`` — so the same kernel runs under pure MPI
(one partition per rank, :class:`~repro.comm.exchange.ExchangePlan`),
the paper's hybrid master-thread model (several partitions per process,
:class:`~repro.comm.hybrid.HybridProcess`, fig. 7b), or real spawned
worker processes (:class:`ProcessExchanger`, shared-memory halo
buffers) without change.  A ``sim``/``hybrid`` solve drives the first
two for *every* rank of its world at once, on one thread:
:class:`LockstepExchanger` posts each exchange on every rank's member,
then finishes it on every rank's, and :class:`LockstepComm` reduces the
kernels' per-partition contributions across all of them.

``start_copy`` is the overlapped-exchange entry point (post sends,
compute interior, finish boundary).  The hybrid backend is already
internally overlapped — its intra-process copies run while inter-process
messages are in transit — so its ``start_copy`` completes eagerly and
returns an already-finished pending.  The process backend's window is
*real* concurrency: between publishing its rows and consuming its
neighbours' every worker computes its interior on its own core, and it
only ever waits for those neighbours (sequence words in the shared
slab), never for the pool.

Setting ``sanitize = True`` on an exchanger arms the
:class:`~repro.runtime.sanitizer.GhostSanitizer` for every overlap
window it opens: ghost slots are poisoned with a NaN canary and the
protected arrays are swapped for read-trapping guard views until the
matching ``finish()``.

Exchangers are constructed only inside this package — everything else
routes through :func:`make_exchanger` (or backend selection on a
:class:`~repro.runtime.config.RuntimeConfig`); lint rule R011 enforces
that, so lifecycle flags (``charging``/``sanitize``) stay uniform.
"""

from __future__ import annotations

from contextlib import nullcontext
from math import prod

import numpy as np

from ..comm.hybrid import HybridProcess, partition_owners
from ..comm.simmpi import fold
from ..errors import ConfigurationError, ExchangeLifecycleError
from ..telemetry.spans import get_tracer, span as _span

_UNBOUND = nullcontext()


def _on_rank(comm):
    """Tracer binding for one rank's half of an exchange: its ``comm.*``
    spans land on that rank's track and clock, whoever steps it."""
    tracer = get_tracer()
    if not tracer.enabled:
        return _UNBOUND
    return tracer.bind(rank=comm.rank, clock=lambda: comm.clock)


class PendingGroup:
    """A batch of in-flight exchanges (one per partition, or per rank).

    Like the per-partition :class:`~repro.comm.exchange.PendingExchange`
    it wraps, ``finish`` must run exactly once; a second call raises
    :class:`~repro.errors.ExchangeLifecycleError`.

    If a member ``finish()`` fails, the group is **not** marked done:
    members that already closed are skipped on a retry (their own
    ``done`` flags record the progress), and the raised error carries
    the failing partition id as a note.
    """

    def __init__(self, pendings: list):
        self.pendings = pendings
        self.done = False

    def finish(self) -> None:
        if self.done:
            raise ExchangeLifecycleError(
                "PendingGroup.finish called twice; each overlap window "
                "must be closed exactly once"
            )
        for p in self.pendings:
            if getattr(p, "done", False):
                # closed by an earlier, partially failed finish()
                continue
            try:
                p.finish()
            except Exception as exc:
                pid = getattr(getattr(p, "plan", None), "rank", None)
                if pid is not None:
                    exc.add_note(
                        f"while finishing the exchange of partition {pid}"
                    )
                raise
        # only a fully closed group is done — a mid-loop failure leaves
        # the group open so the remaining members can still be drained
        self.done = True


class _RankPending(PendingGroup):
    """One rank's open half of an exchange (what ``post`` returns);
    finishes on that rank's tracer track."""

    def __init__(self, comm, pendings: list):
        super().__init__(pendings)
        self.comm = comm

    def finish(self) -> None:
        with _on_rank(self.comm):
            super().finish()


class PlanExchanger:
    """Pure-MPI backend: plan-based exchange per partition.

    ``plans`` maps partition id -> :class:`ExchangePlan`; in pure mode a
    rank holds exactly one partition, making every operation identical
    (same messages, same tags, same virtual-clock charges) to the
    historical per-solver code.
    """

    kind = "plan"

    def __init__(self, comm, plans: dict):
        self.comm = comm
        self.plans = plans
        self.pids = tuple(sorted(plans))
        #: when True, ``charge`` bills compute time to the virtual
        #: clock so overlap benefits show in SimMPI makespans
        self.charging = False
        #: when True, ``start_copy`` arms the GhostSanitizer: NaN
        #: canaries in the ghost slots plus read-trapping guard views
        #: until the matching ``finish()``
        self.sanitize = False

    def copy(self, arrays: dict, tag: int = 0) -> None:
        for pid in sorted(arrays):
            self.plans[pid].exchange_copy(self.comm, arrays[pid], tag)

    def add(self, arrays: dict, tag: int = 1) -> None:
        for pid in sorted(arrays):
            self.plans[pid].exchange_add(self.comm, arrays[pid], tag)

    def post(self, arrays: dict, tag: int, add: bool = False) -> PendingGroup:
        """Post half of a copy (or ``add``); ``finish`` is the other."""
        with _on_rank(self.comm):
            return _RankPending(self.comm, [
                (self.plans[pid].start_add if add
                 else self.plans[pid].start_copy)(self.comm, arrays[pid], tag)
                for pid in sorted(arrays)
            ])

    def start_copy(self, arrays: dict, tag: int = 0):
        return _guarded(self, arrays, self.post(arrays, tag))

    def charge(self, flops: dict) -> None:
        if self.charging:
            _bill(self, flops)


def _guarded(x, arrays: dict, group: PendingGroup):
    """``group``, behind the GhostSanitizer when ``x.sanitize`` is set."""
    if not x.sanitize:
        return group
    from .sanitizer import GhostSanitizer

    return GhostSanitizer(x.plans).guard(arrays, group)


def _bill(x, flops: dict) -> None:
    """Charge ``x``'s rank the ``{pid: flops}`` of its own partitions."""
    total = float(sum(flops[pid] for pid in x.pids))
    if total > 0.0:
        x.comm.compute(flops=total)


class HybridExchanger:
    """Hybrid backend: one :class:`HybridProcess` serving all partitions
    of this MPI process (paper fig. 7b master-thread model)."""

    kind = "hybrid"

    def __init__(self, comm, process):
        self.comm = comm
        self.process = process
        self.pids = process.part_ids
        self.charging = False
        #: accepted for interface symmetry; the hybrid backend has no
        #: overlap window to sanitize (``start_copy`` completes eagerly)
        self.sanitize = False

    def copy(self, arrays: dict, tag: int = 0) -> None:
        self.process.exchange_copy(self.comm, arrays, tag)

    def add(self, arrays: dict, tag: int = 1) -> None:
        self.process.exchange_add(self.comm, arrays, tag)

    def post(self, arrays: dict, tag: int, add: bool = False) -> PendingGroup:
        """Pack, send and intra-process half of a copy (or ``add``);
        ``finish`` waits and unpacks."""
        start = self.process.start_add if add else self.process.start_copy
        with _on_rank(self.comm):
            return _RankPending(self.comm, [start(self.comm, arrays, tag)])

    def start_copy(self, arrays: dict, tag: int = 0) -> PendingGroup:
        # intrinsically overlapped: intra-process copies already run
        # while inter-process messages are in flight.  A fresh group per
        # call (not a shared sentinel) keeps the exactly-once ``finish``
        # contract enforceable.
        self.copy(arrays, tag)
        return PendingGroup([])

    def charge(self, flops: dict) -> None:
        if self.charging:
            _bill(self, flops)


class LockstepComm:
    """The kernels' comm surface over *every* rank of a SimMPI world
    driven in lockstep (:meth:`~repro.comm.simmpi.SimMPI.lockstep`,
    which constructing this starts).

    One partition per rank exchanges by plan; fewer ranks than
    partitions host contiguous blocks of them under the hybrid
    master-thread model.  ``rank``/``clock`` are the lowest rank's, so
    a span the kernels open once for the whole group lands on that
    rank's track.
    """

    rank = 0

    def __init__(self, world, nparts: int):
        if world.nranks > nparts:
            raise ConfigurationError(
                f"{world.nranks} ranks for {nparts} partitions — the "
                "driver needs at least one partition per rank"
            )
        self._world = world
        self.proc_of = partition_owners(nparts, world.nranks)
        #: per rank, its partition ids in ascending order
        self.pids = [
            tuple(p for p in range(nparts) if self.proc_of[p] == rank)
            for rank in range(world.nranks)
        ]
        self.comms = world.lockstep()

    @property
    def clock(self) -> float:
        return self.comms[0].clock

    def allreduce(self, parts: dict, op: str = "sum"):
        """Reduce ``{pid: contribution}``: each rank folds its own
        partitions in pid order, then the ranks fold in rank order —
        the association a rank program per rank would produce."""
        return self._world.allreduce(
            [fold([parts[p] for p in pids], op) for pids in self.pids], op
        )

    def exchanger(self, plans: dict) -> "LockstepExchanger":
        """The rank-spanning exchanger over one level's ``{pid: plan}``."""
        if len(self.comms) == len(plans):
            members = [PlanExchanger(c, {c.rank: plans[c.rank]})
                       for c in self.comms]
        else:
            members = [
                HybridExchanger(c, HybridProcess(
                    rank=c.rank, part_ids=self.pids[c.rank], plans=plans,
                    proc_of=self.proc_of,
                ))
                for c in self.comms
            ]
        return LockstepExchanger(members, self, plans)


class LockstepExchanger:
    """Every rank's exchanger of a lockstep world behind the one
    Exchanger surface: an exchange is *posted* on each member in rank
    order (receives, then sends) and only then *finished* on each, so
    every receive finds its message queued and no rank ever blocks —
    the paper's master-thread "post all receives, post all sends, then
    wait".  The members are the per-rank exchangers a rank program would
    use, so clocks, stats, trace and arrays come out the same.
    """

    def __init__(self, members: list, comm: LockstepComm, plans: dict):
        self.members = members
        self.comm = comm
        self.plans = plans
        #: hybrid members complete ``start_copy`` eagerly (see
        #: :class:`HybridExchanger`); so must the group
        self.eager = members[0].kind == "hybrid"
        self.charging = False
        self.sanitize = False

    def _post(self, arrays: dict, tag: int, add: bool) -> PendingGroup:
        return PendingGroup([
            m.post({p: arrays[p] for p in m.pids}, tag, add)
            for m in self.members
        ])

    def copy(self, arrays: dict, tag: int = 0) -> None:
        pending = self._post(arrays, tag, False)
        pending.finish()

    def add(self, arrays: dict, tag: int = 1) -> None:
        pending = self._post(arrays, tag, True)
        pending.finish()

    def start_copy(self, arrays: dict, tag: int = 0):
        if self.eager:
            self.copy(arrays, tag)
            return PendingGroup([])
        return _guarded(self, arrays, self._post(arrays, tag, False))

    def charge(self, flops: dict) -> None:
        if self.charging:
            for m in self.members:
                _bill(m, flops)


#: Header words of a process-backend channel block.  The sender alone
#: writes ``POSTED``, ``TAG`` and ``LENGTH`` (payload doubles), the
#: receiver alone ``CONSUMED``, a cache line away; payload follows.
POSTED, TAG, LENGTH, CONSUMED, HEADER = 0, 1, 2, 8, 16
_NO_ROWS = np.empty(0, dtype=np.int64)


class _ProcessPending:
    """The open half of a :class:`ProcessExchanger` exchange; it keeps
    the sequence number it was posted under, so ``finish`` consumes the
    blocks its own ``post`` is paired with whatever happened since."""

    def __init__(self, exchanger: "ProcessExchanger", plan, arr: np.ndarray,
                 tag: int, add: bool, seq: int):
        self.x = exchanger
        self.plan = plan
        self.arr = arr
        self.tag, self.add, self.seq = tag, add, seq
        self.done = False

    def finish(self) -> np.ndarray:
        if self.done:
            raise ExchangeLifecycleError(
                f"PendingExchange.finish called twice (rank "
                f"{self.plan.rank}, tag {self.tag}); each overlap window "
                f"must be closed exactly once"
            )
        self.done = True
        x, plan, arr, seq = self.x, self.plan, self.arr, self.seq
        recv = plan.owned_slots if self.add else plan.ghost_slots
        name = "comm.exchange_add" if self.add else "comm.exchange_copy_finish"
        with _span(name, cat="comm", tag=self.tag, neighbors=plan.degree()):
            # PlanExchanger's summation order, hence bit parity (rows
            # never repeats a slot, see PendingExchange._land)
            for q in plan.neighbors:
                blk = x.channels[q][1]
                rows = recv.get(q, _NO_ROWS)
                shape = (len(rows),) + arr.shape[1:]
                n = prod(shape)
                x.comm.await_seq(blk, POSTED, seq, level=x.level, peer=q,
                                 what="posted")
                if (blk[TAG], blk[LENGTH]) != (self.tag, n):
                    raise ExchangeLifecycleError(
                        f"rank {plan.rank} expected tag {self.tag} "
                        f"({n} doubles) from rank {q} on level {x.level}, "
                        f"exchange {seq}, but it posted tag "
                        f"{int(blk[TAG])} ({int(blk[LENGTH])} doubles)"
                    )
                data = blk[HEADER:HEADER + n].reshape(shape)
                if self.add:
                    arr[rows] += data
                else:
                    arr[rows] = data
                x.comm.store_seq(blk, CONSUMED, seq)
        x._open = None
        return arr


class ProcessExchanger:
    """Real multi-core backend: shared-memory halo exchange between
    spawned worker processes, synchronized neighbour to neighbour.

    Each worker owns exactly one partition.  For every directed
    neighbor pair the :class:`~repro.runtime.process.ProcessPool`
    allocates a flat float64 block in one shared slab — ``HEADER``
    words, then the payload; ``channels`` maps neighbor rank -> ``(out,
    inbound)`` views of this worker's send and receive blocks.  The
    exchanger numbers its exchanges (SPMD: both ends of a channel count
    the same ones); each is two steps per neighbour ``q``, and each
    step waits on ``q`` alone:

    * **publish** (:meth:`post`) — wait until ``q`` has ``consumed``
      exchange ``seq - 1``, write the rows the plan says it needs, their
      tag and length, then ``posted = seq``;
    * **consume** (the pending's ``finish``) — wait for ``posted >=
      seq``, check tag and length, land the rows, ``consumed = seq``.

    A neighbour the plan ships nothing to still sequences.  ``copy``
    and ``add`` are publish-then-consume; ``start_copy`` returns the
    pending with only the publish done, so inside the window all workers
    compute their interiors concurrently on separate cores — the paper's
    fig. 7 overlap made real.  One window at a time: posting inside an
    open one would overwrite a block the peer has not read, and raises.
    The memory ordering this leans on is stated at
    :meth:`~repro.runtime.process.ProcessComm.store_seq`/``await_seq``.

    Floating-point parity with :class:`PlanExchanger` holds because
    ``add`` accumulates at owners in the same sorted-neighbor order
    and the owner/ghost slot orderings are the plan's own.
    """

    kind = "process"

    def __init__(self, comm, plans: dict, channels: dict, level: int = 0):
        self.comm = comm
        self.plans = plans
        #: neighbor rank -> (out block, inbound block): flat float64
        #: views of the pool's shared slab, header first
        self.channels = channels
        self.level = level
        #: exchanges posted so far, and the open pending if any
        self.seq, self._open = 0, None
        #: accepted for symmetry; real wall clocks need no charging
        self.charging = False
        self.sanitize = False

    def post(self, arrays: dict, tag: int, add: bool = False):
        """Publish half of a copy (or ``add``: ghost rows ship to their
        owners and zero); ``finish`` of the result is the consume half."""
        (pid, arr), = arrays.items()
        plan = self.plans[pid]
        if self._open is not None:
            raise ExchangeLifecycleError(
                f"rank {plan.rank}, level {self.level}: exchange with tag "
                f"{tag} posted inside the open window of tag "
                f"{self._open.tag}; finish() that one first"
            )
        self.seq = seq = self.seq + 1
        send = plan.ghost_slots if add else plan.owned_slots
        name = "comm.exchange_add" if add else "comm.exchange_copy_start"
        with _span(name, cat="comm", tag=tag, neighbors=plan.degree()):
            for q in plan.neighbors:
                blk = self.channels[q][0]
                rows = send.get(q, _NO_ROWS)
                payload = arr[rows].reshape(-1)
                n = len(payload)
                if n > len(blk) - HEADER:
                    raise ConfigurationError(
                        f"shared halo block for pair ({plan.rank}->{q}) "
                        f"holds {len(blk) - HEADER} doubles, need {n}"
                    )
                self.comm.await_seq(blk, CONSUMED, seq - 1, level=self.level,
                                    peer=q, what="consumed")
                blk[HEADER:HEADER + n] = payload
                blk[TAG], blk[LENGTH] = tag, n
                self.comm.store_seq(blk, POSTED, seq)
                if add:
                    arr[rows] = 0.0
        self._open = _ProcessPending(self, plan, arr, tag, add, seq)
        return self._open

    def copy(self, arrays: dict, tag: int = 0) -> None:
        self.post(arrays, tag).finish()

    def add(self, arrays: dict, tag: int = 1) -> None:
        self.post(arrays, tag, add=True).finish()

    def start_copy(self, arrays: dict, tag: int = 0):
        return _guarded(self, arrays, PendingGroup([self.post(arrays, tag)]))

    def charge(self, flops: dict) -> None:
        """No-op: the process backend's clock is the real one."""


def make_exchanger(backend: str, comm, *, plans: dict | None = None,
                   process=None, channels: dict | None = None,
                   level: int = 0):
    """The one blessed construction point for exchangers.

    Lint rule R011 bans direct ``*Exchanger(...)`` construction outside
    :mod:`repro.runtime`, so every exchanger in the tree comes through
    here (or through :class:`~repro.runtime.config.RuntimeConfig`
    backend selection in the driver) with uniform lifecycle flags.
    """
    if backend in ("sim", "plan"):
        return PlanExchanger(comm, plans or {})
    if backend == "hybrid":
        return HybridExchanger(comm, process)
    if backend == "process":
        return ProcessExchanger(comm, plans or {}, channels or {}, level)
    raise ConfigurationError(
        f"unknown exchanger backend {backend!r}; choose 'sim', "
        "'hybrid' or 'process'"
    )
