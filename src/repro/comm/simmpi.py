"""SimMPI — an in-process message-passing runtime with virtual time.

The paper's solvers are SPMD MPI programs.  We cannot run 2016 MPI ranks
on real hardware here, so SimMPI provides the same programming model
inside one Python process: a :class:`Comm` endpoint per rank offering
blocking/non-blocking point-to-point operations, and the world's
:meth:`SimMPI.allreduce`, the collective the solvers need.

**The caller steps every rank** (:meth:`SimMPI.lockstep`).  A program
that is SPMD by construction — the distributed solve driver, hence
every ``sim``/``hybrid`` solve, ``FillRuntime`` worker and figure
bench, the Random Ring benchmark and ``python -m repro.telemetry``'s
ping-pong — needs no thread per rank: it posts each exchange on every
endpoint before it finishes it on any, and reduces through
:meth:`SimMPI.allreduce`, which takes one contribution per rank.  Every
receive then finds its message queued; one that does not is a
:class:`~repro.errors.DeadlockError` raised on the spot, naming the
rank, the peer and the tag.  Nothing ever blocks, so nothing here takes
a lock or starts a thread; the real concurrency of the paper's machine
is the ``process`` backend's job (:mod:`repro.runtime.process`).  A
caller that holds every rank's rows in one memory (the lockstep halo
exchange) need not send them at all: it moves the rows itself and
charges the messages it stands for through :meth:`SimMPI.charge_sends`
/ :meth:`SimMPI.charge_receives`, which book clocks, stats and trace
exactly as the sends and receives would.

Two things distinguish SimMPI from a toy queue wrapper:

* **Virtual time.**  Every rank carries a clock.  Computation advances it
  via :meth:`Comm.compute` (seconds, or FLOPs converted through the
  machine model's cache-residency rate curve); messages advance the
  receiver's clock by the fabric cost of the transfer (latency + size /
  bandwidth, cross-box contention, irregular-pattern penalties), taking
  the job's :class:`~repro.machine.placement.JobPlacement` into account.
  Collectives synchronize clocks.  A clock is a function of the stamps
  on the messages a rank consumed and of its own charges — never of the
  order the caller stepped the ranks in — so the ledger is independent
  of the schedule, and it is what lets small SimMPI runs calibrate the
  paper-scale performance model.

* **Accounting.**  Per-rank message/byte/flop counters
  (:class:`CommStats`) expose exactly the quantities the performance
  model needs (messages per cycle, halo bytes, FLOPs).

An opt-in structured trace (``SimMPI(..., trace=True)``) records every
send/recv/collective/compute as a :class:`TraceEvent`; the telemetry
collector turns it into timeline events.
"""

from __future__ import annotations

import pickle
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..errors import ConfigurationError, DeadlockError
from ..machine.interconnect import NUMALINK4, FabricModel, message_time
from ..machine.placement import JobPlacement

#: Fixed per-call software overhead charged for issuing an MPI operation
#: (descriptor setup, matching).  Separate from fabric latency.
MPI_CALL_OVERHEAD = 0.5e-6

#: A mailbox address: (destination rank, source rank, tag).
_MailKey = tuple[int, int, int]

#: Appended to a :class:`DeadlockError` raised in a traced world.
_TRACE_HINT = " (trace recorded: world.trace holds every event up to the hang)"


def _payload_bytes(obj: Any) -> int:
    """Estimated wire size of a message payload.

    Unpicklable payloads are a caller bug (the runtime must copy them to
    honor MPI semantics), so they raise rather than being silently
    charged a placeholder size.
    """
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, (int, float, np.floating, np.integer)):
        return 8
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception as exc:
        raise TypeError(
            f"message payload of type {type(obj).__qualname__} is not "
            f"picklable and cannot be sent through SimMPI: {exc}"
        ) from exc


def _copy_payload(obj: Any) -> Any:
    """Messages must not alias sender memory (MPI copy semantics)."""
    if isinstance(obj, np.ndarray):
        return obj.copy()
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


@dataclass
class CommStats:
    """Per-rank traffic and work accounting."""

    messages_sent: int = 0
    bytes_sent: float = 0.0
    messages_received: int = 0
    bytes_received: float = 0.0
    collectives: int = 0
    flops: float = 0.0
    compute_seconds: float = 0.0
    comm_seconds: float = 0.0


@dataclass(frozen=True)
class TraceEvent:
    """One entry in a SimMPI structured trace (``SimMPI(..., trace=True)``).

    ``eid`` is a world-global id assigned in recording order — the
    order the caller stepped the ranks in, the same on every run of the
    same program; ``seq`` is the per-rank program order.  ``matched``
    links a completed ``recv`` to the ``eid`` of the send it consumed.
    """

    eid: int
    rank: int
    seq: int
    op: str  # send | recv_post | recv | collective | compute
    peer: int | None = None
    tag: int | None = None
    nbytes: float = 0.0
    clock: float = 0.0
    detail: str = ""
    matched: int | None = None


@dataclass
class _Message:
    src: int
    payload: object
    nbytes: int
    send_clock: float
    irregular: bool
    trace_eid: int | None = None


class Request:
    """Handle for a non-blocking operation; ``wait()`` completes it.

    Sends are buffered, so an ``isend`` request is born complete (no
    ``complete`` callback).  An ``irecv`` request completes in
    ``wait()``, which raises :class:`~repro.errors.DeadlockError` when
    its message has not been sent.
    """

    def __init__(self, complete: Callable[[], Any] | None = None):
        self._complete = complete
        self._done = complete is None
        self._result: Any = None

    def wait(self) -> Any:
        if self._complete is not None and not self._done:
            self._result = self._complete()
            self._done = True
        return self._result


class Comm:
    """One rank's endpoint into a :class:`SimMPI` world."""

    def __init__(self, world: "SimMPI", rank: int):
        self._world = world
        self.rank = rank
        self.size = world.nranks
        self.clock = 0.0
        self.stats = CommStats()
        self._seq = 0

    # -- tracing ------------------------------------------------------------

    def _record(self, op: str, **fields: Any) -> int | None:
        """Append a :class:`TraceEvent` when tracing is on; returns its eid."""
        if not self._world.trace_enabled:
            return None
        event_seq = self._seq
        self._seq += 1
        return self._world._append_event(
            rank=self.rank, seq=event_seq, op=op, clock=self.clock, **fields
        )

    # -- virtual time -------------------------------------------------------

    def compute(
        self,
        seconds: float | None = None,
        flops: float | None = None,
        working_set_bytes: float = 0.0,
        rate_cache: float = 2.0e9,
        rate_mem: float = 0.8e9,
    ) -> None:
        """Advance this rank's clock by a computation.

        Either pass wall ``seconds`` directly or pass ``flops`` (converted
        through the CPU model's sustained-rate curve for the given working
        set).
        """
        if seconds is None:
            if flops is None:
                raise ConfigurationError("pass seconds or flops")
            cpu = self._world.cpu
            rate = cpu.sustained_flops(working_set_bytes, rate_cache, rate_mem)
            seconds = flops / rate
            self.stats.flops += flops
        self.clock += seconds
        self.stats.compute_seconds += seconds
        self._record("compute", nbytes=0.0, detail=f"{seconds:.3e}s")

    # -- point to point -----------------------------------------------------

    def send(
        self, payload: Any, dest: int, tag: int = 0, irregular: bool = False
    ) -> None:
        """Blocking standard-mode send (buffered: never deadlocks)."""
        self.isend(payload, dest, tag, irregular=irregular)

    def isend(
        self, payload: Any, dest: int, tag: int = 0, irregular: bool = False
    ) -> Request:
        if not 0 <= dest < self.size:
            raise ConfigurationError(f"bad destination rank {dest}")
        nbytes = _payload_bytes(payload)
        send_clock, eid = self._book_send(
            dest, tag, nbytes, type(payload).__qualname__
        )
        msg = _Message(
            src=self.rank,
            payload=_copy_payload(payload),
            nbytes=nbytes,
            send_clock=send_clock,
            irregular=irregular,
            trace_eid=eid,
        )
        self._world._deliver((dest, self.rank, tag), msg)
        return Request()

    def _book_send(self, dest: int, tag: int, nbytes: int,
                   detail: str) -> tuple[float, int | None]:
        """Charge one send — call overhead, stats, trace — and return
        its ``(send_clock, eid)`` stamp."""
        stats = self.stats
        self.clock += MPI_CALL_OVERHEAD
        stats.comm_seconds += MPI_CALL_OVERHEAD
        eid = self._record(
            "send", peer=dest, tag=tag, nbytes=nbytes, detail=detail
        ) if self._world.trace_enabled else None
        stats.messages_sent += 1
        stats.bytes_sent += nbytes
        return self.clock, eid

    def _book_receive(self, source: int, tag: int, nbytes: int,
                      arrival: float, eid: int | None) -> None:
        """Charge one receive of a message arriving at ``arrival``: wait
        for it, then the call overhead; stats, trace."""
        stats = self.stats
        before = self.clock
        self.clock = max(before, arrival) + MPI_CALL_OVERHEAD
        stats.comm_seconds += self.clock - before
        stats.messages_received += 1
        stats.bytes_received += nbytes
        if self._world.trace_enabled:
            self._record("recv", peer=source, tag=tag, nbytes=nbytes,
                         matched=eid)

    def recv(self, source: int, tag: int = 0) -> Any:
        """Blocking receive; returns the payload."""
        return self.irecv(source, tag).wait()

    def irecv(self, source: int, tag: int = 0) -> Request:
        if not 0 <= source < self.size:
            raise ConfigurationError(f"bad source rank {source}")
        world = self._world
        key = (self.rank, source, tag)
        self._record("recv_post", peer=source, tag=tag)

        def complete() -> Any:
            msg = world._collect(key)
            transit = world.transfer_time(
                msg.src, self.rank, msg.nbytes, irregular=msg.irregular
            )
            self._book_receive(source, tag, msg.nbytes,
                               msg.send_clock + transit, msg.trace_eid)
            return msg.payload

        return Request(complete)

    # -- collectives ----------------------------------------------------------

    def _leave_collective(self, before: float, sync: float,
                          nbytes: float) -> None:
        """Charge a collective entered at ``before`` whose last rank
        arrived at ``sync``."""
        self.clock = sync + self._world.collective_time(nbytes)
        self.stats.collectives += 1
        self.stats.comm_seconds += self.clock - before


def fold(vals: list, op: str) -> Any:
    """Left fold of ``vals`` under ``op`` — the one association every
    reduction in the tree uses, so results are bit-equal across backends."""
    if op == "sum":
        out = vals[0]
        if isinstance(out, np.ndarray):
            out = out.copy()
        for v in vals[1:]:
            out = out + v
        return out
    if op == "max":
        out = vals[0]
        for v in vals[1:]:
            out = np.maximum(out, v) if isinstance(out, np.ndarray) else max(out, v)
        return out
    if op == "min":
        out = vals[0]
        for v in vals[1:]:
            out = np.minimum(out, v) if isinstance(out, np.ndarray) else min(out, v)
        return out
    raise ConfigurationError(f"unknown reduction op {op!r}")


def _copy_result(value: Any) -> Any:
    """Collective results are shared across ranks; hand out copies of
    arrays so one rank cannot mutate another's view."""
    if isinstance(value, np.ndarray):
        return value.copy()
    return value


class SimMPI:
    """A simulated MPI world of ``nranks`` processes.

    Parameters
    ----------
    nranks:
        Number of MPI ranks.
    placement:
        Optional :class:`JobPlacement` pinning ranks to Columbia boxes.
        Without it all ranks share one box (pure shared-memory costs).
    fabric:
        Box-to-box fabric used when no placement is given but callers
        still ask for cross-box costs.
    trace:
        Record a structured :class:`TraceEvent` log of every operation
        (``self.trace``).  Off by default: tracing costs memory
        proportional to message count.
    """

    def __init__(
        self,
        nranks: int,
        placement: JobPlacement | None = None,
        fabric: FabricModel = NUMALINK4,
        trace: bool = False,
    ):
        if nranks < 1:
            raise ConfigurationError("nranks must be >= 1")
        if placement is not None and placement.nranks != nranks:
            raise ConfigurationError(
                f"placement provides {placement.nranks} ranks, world needs {nranks}"
            )
        self.nranks = nranks
        self.placement = placement
        self._fabric = fabric
        self.trace_enabled = trace
        self.trace: list[TraceEvent] = []
        #: (src, dst, nbytes) -> transfer_time; the placement is fixed
        #: for the world's lifetime, so the cache is too
        self._transit: dict[tuple[int, int, int], float] = {}
        self.lockstep()
        if placement is not None:
            self._box_of = placement.box_of_rank()
            self._nboxes = placement.nboxes
            self._eff_fabric = placement.effective_fabric()
            self.cpu = placement.nodes[0].cpu
        else:
            self._box_of = np.zeros(nranks, dtype=np.int64)
            self._nboxes = 1
            self._eff_fabric = fabric
            from ..machine.cpu import CPU_ITANIUM2_1600

            self.cpu = CPU_ITANIUM2_1600

    # -- plumbing -------------------------------------------------------------

    def _append_event(self, **fields: Any) -> int:
        """Record one trace event; returns its world-global eid."""
        eid = len(self.trace)
        self.trace.append(TraceEvent(eid=eid, **fields))
        return eid

    def _deliver(self, key: _MailKey, msg: _Message) -> None:
        """Queue ``msg`` for its receiver."""
        box = self._mailboxes.get(key)
        if box is None:
            box = self._mailboxes[key] = deque()
        box.append(msg)

    def _collect(self, key: _MailKey) -> _Message:
        """Next message for ``key``; none queued is a deadlock: every
        rank posts before any finishes, so nothing will send it."""
        box = self._mailboxes.get(key)
        if not box:
            hint = _TRACE_HINT if self.trace_enabled else ""
            raise DeadlockError(
                f"rank {key[0]} deadlocked waiting for rank {key[1]} "
                f"tag {key[2]}{hint}"
            )
        return box.popleft()

    # -- cost model -----------------------------------------------------------

    def transfer_time(
        self, src: int, dst: int, nbytes: float, irregular: bool = False
    ) -> float:
        """Fabric cost of one message between two ranks."""
        same_box = bool(self._box_of[src] == self._box_of[dst])
        return message_time(
            nbytes,
            same_box=same_box,
            fabric=self._eff_fabric,
            nboxes=self._nboxes,
            irregular=irregular,
        )

    def collective_time(self, nbytes: float) -> float:
        """Tree-structured collective: log2(P) message steps on the
        slowest path (cross-box when the job spans boxes)."""
        steps = max(1, int(np.ceil(np.log2(max(self.nranks, 2)))))
        worst = message_time(
            nbytes,
            same_box=self._nboxes == 1,
            fabric=self._eff_fabric,
            nboxes=self._nboxes,
        )
        return steps * worst

    # -- execution -------------------------------------------------------------

    def lockstep(self) -> list[Comm]:
        """Start a run whose every rank the caller steps (module
        docstring): fresh endpoints in rank order, empty mailboxes.  A
        receive on an empty mailbox raises :class:`DeadlockError` on
        the spot, and the world is reusable after it through the next
        call."""
        self.comms = [Comm(self, r) for r in range(self.nranks)]
        self._mailboxes: dict[_MailKey, deque[_Message]] = {}
        return self.comms

    def allreduce(self, values: list, op: str = "sum") -> Any:
        """Reduce scalars or same-shape arrays across every rank of a
        :meth:`lockstep` run: ``values[r]`` is rank ``r``'s
        contribution, folded in rank order.  Each endpoint is charged a
        tree collective that starts when the last rank arrives."""
        kind = f"allreduce:{op}"
        sizes = [_payload_bytes(v) for v in values]
        for comm, nbytes in zip(self.comms, sizes):
            comm._record("collective", nbytes=nbytes, detail=kind)
        sync = max(comm.clock for comm in self.comms)
        for comm, nbytes in zip(self.comms, sizes):
            comm._leave_collective(comm.clock, sync, nbytes)
        return _copy_result(fold(values, op))

    def charge_sends(self, sends: list, tag: int, rowbytes: int) -> dict:
        """Every rank's half of posting one exchange whose rows a
        :meth:`lockstep` caller moves itself: ``sends[r]`` lists rank
        ``r``'s ``(dest, rows)`` messages in posting order.  Each
        endpoint is charged — clock, stats, trace (its receive posts,
        then its sends) — as :meth:`Comm.irecv` and :meth:`Comm.isend`
        charge it; no payload is copied or queued.  Returns the
        ``{(src, dest): (send_clock, eid)}`` stamps
        :meth:`charge_receives` consumes."""
        stamps = {}
        for comm, mine in zip(self.comms, sends):
            if self.trace_enabled:
                for dest, _rows in mine:
                    comm._record("recv_post", peer=dest, tag=tag)
            for dest, rows in mine:
                stamps[comm.rank, dest] = comm._book_send(
                    dest, tag, rows * rowbytes, "ndarray"
                )
        return stamps

    def charge_receives(self, waits: list, tag: int, rowbytes: int,
                        stamps: dict) -> None:
        """Every rank's half of finishing the exchange
        :meth:`charge_sends` posted: ``waits[r]`` lists rank ``r``'s
        ``(source, rows)`` messages in wait order, each charged as
        :meth:`Request.wait` on its :meth:`Comm.irecv` charges it."""
        transit = self._transit
        for comm, mine in zip(self.comms, waits):
            rank = comm.rank
            for src, rows in mine:
                nbytes = rows * rowbytes
                send_clock, eid = stamps[src, rank]
                key = src, rank, nbytes
                cost = transit.get(key)
                if cost is None:
                    cost = transit[key] = self.transfer_time(src, rank, nbytes)
                comm._book_receive(src, tag, nbytes, send_clock + cost, eid)

    # -- post-run inspection ----------------------------------------------------

    def max_clock(self) -> float:
        """Virtual makespan of the last run (max over rank clocks)."""
        return max(c.clock for c in self.comms)

    def total_stats(self) -> CommStats:
        total = CommStats()
        for c in self.comms:
            s = c.stats
            total.messages_sent += s.messages_sent
            total.bytes_sent += s.bytes_sent
            total.messages_received += s.messages_received
            total.bytes_received += s.bytes_received
            total.collectives += s.collectives
            total.flops += s.flops
            total.compute_seconds += s.compute_seconds
            total.comm_seconds += s.comm_seconds
        return total
