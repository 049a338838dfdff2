"""Pluggable comm backends for the distributed solve driver.

A level's distributed state is one stacked ``(nrows, nvar)`` array over
the rows of a :class:`~repro.runtime.domain.RowStack`, and solver
kernels talk to one small Exchanger surface over it — ``copy``,
``add``, ``start_copy`` and ``charge`` — so the same kernel runs
in-process (:class:`LockstepExchanger`) or on real spawned worker
processes (:class:`ProcessExchanger`, shared-memory halo buffers)
without change.

A ``sim``/``hybrid`` solve holds every rank's rows in one stacked array
on one thread, as a Columbia Altix box holds them in one shared memory,
so its exchange is the paper's fig. 7b OpenMP copy phase for the whole
world: :class:`LockstepExchanger` lands a copy as one gather of owner
rows into ghost rows and an add as one gather, one zeroing and one
scatter-operator apply, by index arrays built from the plans once per
level.  No message moves.  The virtual ledger is charged by replaying
the messages the master-thread exchange would send — per rank, one per
remote process and direction, as
:meth:`~repro.comm.hybrid.HybridProcess.schedule` lists them (one
partition per rank is pure MPI) — so clocks, stats and trace are those
of a rank program per rank; :class:`LockstepComm` reduces the kernels'
per-partition contributions the same way.  The exchange that sends
those messages over ``{pid: array}`` dicts lives in the tests, as the
oracle this one is held to.

``start_copy`` is the overlapped-exchange entry point (post sends,
compute interior, finish boundary); inside the window kernels read the
state through the returned pending's ``q``.  With one partition per
rank the in-process window is real: ghost rows land at ``finish``.
With several the exchange is already internally overlapped —
intra-process copies run while inter-process messages are in transit —
so ``start_copy`` completes eagerly and returns an already-landed
pending (:class:`Landed`,
:attr:`~repro.comm.hybrid.HybridProcess.real_window`).  The process
backend's window is *real* concurrency: between publishing its rows and
consuming its neighbours' every worker computes its interior on its own
core, and it only ever waits for those neighbours (sequence words in
the shared slab), never for the pool.

Setting ``sanitize = True`` on a lockstep or process exchanger arms the
:class:`~repro.runtime.sanitizer.GhostSanitizer` for every real window:
ghost rows carry a NaN canary, ``pending.q`` is a read-trapping guard
view, and an exchange posted before the matching ``finish()`` raises.
"""

from __future__ import annotations

from math import prod

import numpy as np

from ..comm.hybrid import HybridProcess, partition_owners
from ..comm.simmpi import fold
from ..errors import ConfigurationError, DeadlockError, ExchangeLifecycleError
from ..kernels import incidence
from ..telemetry.spans import get_tracer, span as _span
from .domain import level_cache, row_stack


class Landed:
    """The pending of a window whose copy landed at ``start_copy`` (the
    eager case: several partitions per rank).  ``q`` is the state;
    ``finish`` only closes the window, exactly once."""

    def __init__(self, q):
        self.q, self.done = q, False

    def finish(self) -> None:
        if self.done:
            raise ExchangeLifecycleError(
                "overlap window finished twice; each overlap window must "
                "be closed exactly once"
            )
        self.done = True


def _guarded(x, pending):
    """``pending``, behind the GhostSanitizer when ``x.sanitize`` is
    set; the open sanitized window is kept as ``x.sanitized``."""
    if not x.sanitize:
        return pending
    from .sanitizer import GhostSanitizer

    x.sanitized = GhostSanitizer(x.rows).guard(pending)
    return x.sanitized


def _refuse_in_window(x, tag: int) -> None:
    """Raise if a sanitized window of ``x`` is still open: nothing may
    be posted before its ``finish``."""
    window = x.sanitized
    if window is not None and not window.done:
        window.refuse(tag)


def _bill(comm, pids, flops: dict) -> None:
    """Charge ``comm``'s rank the ``{pid: flops}`` of its partitions
    ``pids``."""
    total = float(sum(flops[pid] for pid in pids))
    if total > 0.0:
        comm.compute(flops=total)


class LockstepComm:
    """The kernels' comm surface over *every* rank of a SimMPI world
    driven in lockstep (:meth:`~repro.comm.simmpi.SimMPI.lockstep`,
    which constructing this starts).

    Each rank hosts a contiguous block of partitions — one each under
    pure MPI — and exchanges under the master-thread model.
    ``rank``/``clock`` are the lowest rank's, so a span the kernels open
    once for the whole group lands on that rank's track.
    """

    rank = 0

    def __init__(self, world, nparts: int):
        if world.nranks > nparts:
            raise ConfigurationError(
                f"{world.nranks} ranks for {nparts} partitions — the "
                "driver needs at least one partition per rank"
            )
        self.world = world
        self.proc_of = partition_owners(nparts, world.nranks)
        #: per rank, its partition ids in ascending order
        self.pids = [
            tuple(p for p in range(nparts) if self.proc_of[p] == rank)
            for rank in range(world.nranks)
        ]
        #: several partitions per rank: the master-thread exchange
        #: completes ``start_copy`` eagerly
        #: (``HybridProcess.real_window``)
        self.eager = world.nranks < nparts
        self.comms = world.lockstep()
        #: tag -> ids of the posted, unfinished windows, oldest first
        self._windows: dict[int, list[int]] = {}
        self._posted = 0

    @property
    def clock(self) -> float:
        return self.comms[0].clock

    def allreduce(self, parts: dict, op: str = "sum"):
        """Reduce ``{pid: contribution}``: each rank folds its own
        partitions in pid order, then the ranks fold in rank order —
        the association a rank program per rank would produce."""
        return self.world.allreduce(
            [fold([parts[p] for p in pids], op) for pids in self.pids], op
        )

    def exchanger(self, doms: dict) -> "LockstepExchanger":
        """The rank-spanning exchanger over one level's ``{pid:
        domain}``; its index arrays live on the level, shared by every
        solve on the hierarchy."""
        return LockstepExchanger(self, doms)

    def _open_window(self, tag: int) -> int:
        self._posted += 1
        self._windows.setdefault(tag, []).append(self._posted)
        return self._posted

    def _receive(self, tag: int, window: int | None) -> None:
        """Messages match in posting order: a finish while an earlier
        exchange of its tag is posted and unfinished would receive that
        one's messages — a stale, possibly wrong-shaped payload."""
        waiting = self._windows.get(tag)
        if waiting and waiting[0] != window:
            raise ValueError(
                f"a tag-{tag} exchange finished while an earlier tag-{tag} "
                "window is posted and unfinished: its receives would take "
                "that window's stale messages"
            )
        if window is not None:
            waiting.pop(0)


_NO_ROWS = np.empty(0, dtype=np.int64)


def _check_plans(plans: dict, sizes: dict, proc_of: dict, tag: int) -> None:
    """Raise, naming both partitions, on what the message path would
    run into: a slot list without its mirror (a receive nobody ships
    to), a mirror of another length, a slot outside the partition."""
    for p in sorted(plans):
        for side, mirror, what in (
            ("ghost_slots", "owned_slots", "holds ghosts of"),
            ("owned_slots", "ghost_slots", "lists owned rows for"),
        ):
            for q, slots in getattr(plans[p], side).items():
                if q not in plans:
                    raise ConfigurationError(
                        f"partition {p} {what} partition {q}, which is "
                        "not in this world"
                    )
                theirs = getattr(plans[q], mirror).get(p)
                if theirs is None:
                    raise DeadlockError(
                        f"rank {proc_of[p]} deadlocked waiting for rank "
                        f"{proc_of[q]} tag {tag}: partition {p} {what} "
                        f"partition {q}, whose plan has no {mirror} for it"
                    )
                if len(theirs) != len(slots):
                    raise ValueError(
                        f"partition {p} {what} partition {q} in "
                        f"{len(slots)} rows, partition {q} mirrors "
                        f"{len(theirs)}"
                    )
                if len(slots) and not (
                    0 <= np.min(slots) and np.max(slots) < sizes[p]
                ):
                    raise IndexError(
                        f"partition {p} {what} partition {q} at a slot "
                        f"outside its {sizes[p]} rows"
                    )


class _WorldRows:
    """One level's halo exchange as index arrays over the rows of its
    :class:`~repro.runtime.domain.RowStack`: every partition of a
    lockstep world end to end in pid order — the paper's fig. 7b OpenMP
    copy phase when every rank shares one memory.

    * a copy is ``rows[copy_dst] = rows[copy_src]``, owner rows into
      ghost rows;
    * an add gathers the shipped ghost rows ``add_src``, zeroes them and
      sums them into their owners' rows with ``add_op``.  Every owner
      row takes its sources in the master-thread exchange's landing
      order — its own process's partitions first, then remote ones, each
      ascending — so it sums bit for bit as the message path does;
    * ``ledger[add]`` is, per rank, the ``(sends, waits)`` row counts of
      the messages the message path would send and wait for
      (:meth:`~repro.comm.hybrid.HybridProcess.schedule`).
    """

    def __init__(self, plans: dict, stack, comm: LockstepComm, tag: int):
        proc = comm.proc_of
        _check_plans(plans, dict(zip(stack.spans, stack.sizes)), proc, tag)
        start = {p: span.start for p, span in stack.spans.items()}

        def rows(dst_side: str, src_side: str) -> tuple:
            dst, src = [_NO_ROWS], [_NO_ROWS]
            for d in plans:
                mine = getattr(plans[d], dst_side)
                for s in sorted(mine, key=lambda q: (proc[q] != proc[d], q)):
                    dst.append(start[d] + mine[s])
                    src.append(start[s] + getattr(plans[s], src_side)[d])
            return np.concatenate(dst), np.concatenate(src)

        self.copy_dst, self.copy_src = rows("ghost_slots", "owned_slots")
        add_dst, self.add_src = rows("owned_slots", "ghost_slots")
        self.add_op = incidence(len(stack.ghost), (add_dst, 1.0))
        procs = [
            HybridProcess(rank=r, part_ids=mine, plans=plans, proc_of=proc)
            for r, mine in enumerate(comm.pids)
        ]
        self.ledger = tuple(
            tuple(zip(*(hp.schedule(add) for hp in procs)))
            for add in (False, True)
        )


def _row_items(a: np.ndarray) -> np.ndarray:
    """``a`` as one opaque item per row, so a row gather or scatter
    moves the same bytes in one indexed pass instead of one per column
    — for a plain C-contiguous array; anything else comes back as is."""
    if type(a) is not np.ndarray or not a.flags.c_contiguous or not len(a):
        return a
    flat = a.reshape(len(a), -1)
    return flat.view(np.dtype((np.void, flat.strides[0])))[:, 0]


class LockstepExchanger:
    """Every rank's halo exchange of one level of a lockstep world, on
    the level's stacked state array.

    A copy is one gather of owner rows into ghost rows of that array and
    an add one gather, one zeroing and one
    :class:`~repro.kernels.ScatterOperator` apply (:class:`_WorldRows`,
    built from the plans once per level).  No message is sent: the
    virtual ledger is charged by replaying the messages each rank's
    master-thread exchange would send
    (:meth:`~repro.comm.simmpi.SimMPI.charge_sends` /
    :meth:`~repro.comm.simmpi.SimMPI.charge_receives`), so clocks,
    stats, trace and arrays come out as a rank program per rank would
    leave them — the message-level exchange in the tests is the oracle
    they hold this one to.
    """

    def __init__(self, comm: LockstepComm, doms: dict):
        self.comm = comm
        self.rows = row_stack(doms)
        self.charging = False
        self.sanitize = False
        #: the last sanitized window opened (open until its finish)
        self.sanitized = None
        self._doms = doms

    def _world_rows(self, tag: int) -> _WorldRows:
        def build():
            plans = {p: dom.halo.plan for p, dom in self._doms.items()}
            return _WorldRows(plans, self.rows, self.comm, tag)

        key = "lockstep_rows", self.comm.world.nranks
        return level_cache(self._doms, key, build)

    def _post(self, q: np.ndarray, tag: int, add: bool,
              window: bool = False) -> "_LockstepPending":
        _refuse_in_window(self, tag)
        return _LockstepPending(self, q, tag, add, window)

    def copy(self, q: np.ndarray, tag: int = 0) -> None:
        self._post(q, tag, False).finish()

    def add(self, q: np.ndarray, tag: int = 1) -> None:
        self._post(q, tag, True).finish()

    def start_copy(self, q: np.ndarray, tag: int = 0):
        if self.comm.eager:
            self.copy(q, tag)
            return Landed(q)
        return _guarded(self, self._post(q, tag, False, True))

    def charge(self, flops: dict) -> None:
        if self.charging:
            for c, pids in zip(self.comm.comms, self.comm.pids):
                _bill(c, pids, flops)


class _LockstepPending:
    """A posted lockstep exchange on the array ``q``: sends charged and
    the shipped rows gathered; ``finish`` (exactly once) charges the
    receives and lands the rows."""

    def __init__(self, x: LockstepExchanger, q: np.ndarray, tag: int,
                 add: bool, window: bool):
        self.x, self.q = x, q
        self.tag, self.add, self.done = tag, add, False
        self.rows = rows = x._world_rows(tag)
        comm = x.comm
        self.window = comm._open_window(tag) if window else None
        self.rowbytes = q.dtype.itemsize * prod(q.shape[1:])
        traced = get_tracer().enabled
        self.t0 = [c.clock for c in comm.comms] if traced else None
        self.stamps = comm.world.charge_sends(rows.ledger[add][0], tag,
                                              self.rowbytes)
        items = _row_items(q)
        if add:
            data = items[rows.add_src]
            items[rows.add_src] = np.zeros((), items.dtype)
            self.data = data.view(q.dtype).reshape((-1,) + q.shape[1:])
        else:
            self.data = items[rows.copy_src]
        if traced and window:
            self._spans("comm.exchange_copy_start")

    def _spans(self, name: str) -> None:
        """One ``comm.*`` span per rank, on its own track and clock."""
        tracer = get_tracer()
        for c, t0 in zip(self.x.comm.comms, self.t0):
            tracer.record(name, t0, c.clock, rank=c.rank, cat="comm",
                          tag=self.tag)

    def finish(self) -> None:
        if self.done:
            raise ExchangeLifecycleError(
                f"exchange finish called twice (tag {self.tag}); each "
                "exchange must be completed exactly once"
            )
        self.done = True
        comm, rows = self.x.comm, self.rows
        comm._receive(self.tag, self.window)
        traced = get_tracer().enabled
        if traced and (self.window or self.t0 is None):
            self.t0 = [c.clock for c in comm.comms]
        comm.world.charge_receives(rows.ledger[self.add][1], self.tag,
                                   self.rowbytes, self.stamps)
        if self.add:
            rows.add_op.add_to(self.q, self.data)
        else:
            _row_items(self.q)[rows.copy_dst] = self.data
        if traced:
            self._spans(
                "comm.exchange_copy_finish" if self.window
                else "comm.exchange_add" if self.add
                else "comm.exchange_copy"
            )


#: Header words of a process-backend channel block.  The sender alone
#: writes ``POSTED``, ``TAG`` and ``LENGTH`` (payload doubles), the
#: receiver alone ``CONSUMED``, a cache line away; payload follows.
POSTED, TAG, LENGTH, CONSUMED, HEADER = 0, 1, 2, 8, 16


class _ProcessPending:
    """The open half of a :class:`ProcessExchanger` exchange on the
    array ``q``; it keeps the sequence number it was posted under, so
    ``finish`` consumes the blocks its own ``post`` is paired with
    whatever happened since."""

    def __init__(self, exchanger: "ProcessExchanger", arr: np.ndarray,
                 tag: int, add: bool, seq: int):
        self.x = exchanger
        self.q = arr
        self.tag, self.add, self.seq = tag, add, seq
        self.done = False

    def finish(self) -> None:
        x, plan, arr, seq = self.x, self.x.plan, self.q, self.seq
        if self.done:
            raise ExchangeLifecycleError(
                f"exchange finish called twice (rank {plan.rank}, "
                f"tag {self.tag}); each overlap window must be closed "
                f"exactly once"
            )
        self.done = True
        recv = plan.owned_slots if self.add else plan.ghost_slots
        name = "comm.exchange_add" if self.add else "comm.exchange_copy_finish"
        with _span(name, cat="comm", tag=self.tag, neighbors=plan.degree()):
            # the in-process exchange's summation order, hence bit
            # parity (rows never repeats a slot: build_halos gives every
            # ghost one owner and one slot, a tier-1 property)
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


class ProcessExchanger:
    """Real multi-core backend: shared-memory halo exchange between
    spawned worker processes, synchronized neighbour to neighbour.

    Each worker owns exactly one partition, the domain ``dom``, and its
    state is that partition's rows.  For every directed neighbor pair
    the :class:`~repro.runtime.process.ProcessPool` allocates a flat
    float64 block in one shared slab — ``HEADER`` words, then the
    payload; ``channels`` maps neighbor rank -> ``(out, inbound)`` views
    of this worker's send and receive blocks.  The exchanger numbers its
    exchanges (SPMD: both ends of a channel count the same ones); each
    is two steps per neighbour ``q``, and each step waits on ``q``
    alone:

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

    Floating-point parity with the in-process exchange at one partition
    per rank holds because ``add`` accumulates at owners in the same
    sorted-neighbor order and the owner/ghost slot orderings are the
    plan's own.
    """

    def __init__(self, comm, dom, channels: dict, level: int = 0):
        self.comm = comm
        self.plan = dom.halo.plan
        self.rows = row_stack({self.plan.rank: dom})
        #: neighbor rank -> (out block, inbound block): flat float64
        #: views of the pool's shared slab, header first
        self.channels = channels
        self.level = level
        #: exchanges posted so far, and the open pending if any
        self.seq, self._open = 0, None
        #: accepted for symmetry; real wall clocks need no charging
        self.charging = False
        self.sanitize = False
        #: the last sanitized window opened (open until its finish)
        self.sanitized = None

    def post(self, arr: np.ndarray, tag: int, add: bool = False):
        """Publish half of a copy (or ``add``: ghost rows ship to their
        owners and zero); ``finish`` of the result is the consume half."""
        _refuse_in_window(self, tag)
        plan = self.plan
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
        self._open = _ProcessPending(self, arr, tag, add, seq)
        return self._open

    def copy(self, q: np.ndarray, tag: int = 0) -> None:
        self.post(q, tag).finish()

    def add(self, q: np.ndarray, tag: int = 1) -> None:
        self.post(q, tag, add=True).finish()

    def start_copy(self, q: np.ndarray, tag: int = 0):
        return _guarded(self, self.post(q, tag))

    def charge(self, flops: dict) -> None:
        """No-op: the process backend's clock is the real one."""
