"""SimMPI — an in-process message-passing runtime with virtual time.

The paper's solvers are SPMD MPI programs.  We cannot run 2016 MPI ranks
on real hardware here, so SimMPI provides the same programming model
inside one Python process: a :class:`Comm` endpoint per rank offering
blocking/non-blocking point-to-point operations and the collectives the
solvers need.  There are two ways to drive the endpoints, and they
charge the same ledger.

**Lockstep: the caller steps every rank** (:meth:`SimMPI.lockstep`).
A program that is SPMD by construction — the distributed solve driver,
hence every ``sim``/``hybrid`` solve, ``FillRuntime`` worker and figure
bench — needs no thread per rank: it posts each exchange on every
endpoint before it finishes it on any, and reduces through
:meth:`SimMPI.allreduce`.  Every receive then finds its message queued;
one that does not is a :class:`~repro.errors.DeadlockError` raised on
the spot.  No thread, gate or hand-off is involved.

**Free-form rank programs: one baton, cooperative hand-off**
(:meth:`SimMPI.run`).  Arbitrary blocking rank functions — the comm
tests and patterns, ``python -m repro.telemetry``,
the perf harness's exchange probe — are executed once per rank.  Each
rank has its own thread so rank bodies stay plain blocking code, but
the threads never run concurrently: exactly one rank holds the *baton*
and executes; every other rank sleeps on a private gate and wants
nothing from the interpreter.  The holder gives the baton up at the
only two places a rank can block —

* a receive (``recv`` / ``Request.wait``) whose mailbox is empty, and
* a collective that not every rank has entered yet —

by marking itself parked, opening the gate of the next *ready* rank (the
lowest rank after it, cyclically) and sleeping on its own gate.  A
parked rank becomes ready again when the thing it waits for happens:
``isend`` readies the rank parked on that (source, tag), and the last
rank to enter a collective combines the deposited values in rank order
and readies all the others.  Rank 0 starts with the baton; a rank that
returns passes it on the same way.  The schedule is therefore a
deterministic function of the program — trace ``eid`` order included —
and the real concurrency of the paper's machine is the ``process``
backend's job (:mod:`repro.runtime.process`), not this module's.

Because only the baton holder touches world state, mailboxes are plain
deques and nothing in here takes a lock.  The flip side is the one rule
for rank bodies: **block on nothing but** ``comm``.  A rank that waits
on a lock, queue or event that another rank would have to release never
yields the baton, and the world stops.

Deadlock detection is exact and immediate: when the holder parks (or
returns) and no rank is ready while some are unfinished, nothing can
ever ready them, so every parked rank raises
:class:`~repro.errors.DeadlockError` naming what it waited for.  When a
rank raises, every parked rank is readied and unwinds; :meth:`SimMPI.run`
re-raises the *first* failure as :class:`~repro.errors.RankFailure`.

Two things distinguish SimMPI from a toy queue wrapper:

* **Virtual time.**  Every rank carries a clock.  Computation advances it
  via :meth:`Comm.compute` (seconds, or FLOPs converted through the
  machine model's cache-residency rate curve); messages advance the
  receiver's clock by the fabric cost of the transfer (latency + size /
  bandwidth, cross-box contention, irregular-pattern penalties), taking
  the job's :class:`~repro.machine.placement.JobPlacement` into account.
  Collectives synchronize clocks.  A clock is a function of the stamps
  on the messages a rank consumed and of its own charges — never of when
  the scheduler happened to run it — so the ledger is independent of the
  schedule, and it is what lets small SimMPI runs calibrate the
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
import threading
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..errors import ConfigurationError, DeadlockError, RankFailure
from ..machine.interconnect import NUMALINK4, FabricModel, message_time
from ..machine.placement import JobPlacement

#: Fixed per-call software overhead charged for issuing an MPI operation
#: (descriptor setup, matching).  Separate from fabric latency.
MPI_CALL_OVERHEAD = 0.5e-6

#: A mailbox address: (destination rank, source rank, tag).
_MailKey = tuple[int, int, int]

#: What a rank parked inside an incomplete collective waits on; no
#: mailbox has this address, so no ``isend`` can ready it by accident.
_COLLECTIVE: _MailKey = (-1, -1, -1)

_READY, _RUNNING, _PARKED, _DONE = range(4)

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

    ``eid`` is a world-global id assigned in recording order — which,
    under the baton scheduler, is the same on every run of the same
    program; ``seq`` is the per-rank program order.  ``matched`` links a
    completed ``recv`` to the ``eid`` of the send it consumed.
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
    ``wait()``, the only call here that may give up the baton.
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


class _Abort(BaseException):
    """Unwinds a rank that another rank's failure left with nothing to
    wait for.  Internal: never leaves :meth:`SimMPI.run`."""


class _Baton:
    """The cooperative scheduler: which rank runs, who is parked on what.

    Every method is called by the baton holder (the launching thread
    counts as the holder until it opens rank 0's gate), so the state
    needs no lock.  A gate is a lock held shut while its rank runs or
    sleeps; sleeping is ``acquire()``, waking is another rank's
    ``release()``, and each gate is touched by exactly those two.
    """

    def __init__(self, nranks: int, hint: str, state: int = _READY):
        self.nranks = nranks
        self.hint = hint
        #: ``_DONE`` under :meth:`SimMPI.lockstep`, where no rank has a
        #: thread: a caller that parks finds nobody ready and nobody
        #: else parked, which :meth:`_hand_off` knows for a deadlock
        self.state = [state] * nranks
        self.waiting: list[_MailKey | None] = [None] * nranks
        #: first failure of the run: (rank, exception)
        self.failure: tuple[int, BaseException] | None = None
        self.deadlocked = False
        self.gates = [threading.Lock() for _ in range(nranks)]
        for gate in self.gates:
            gate.acquire()

    def take(self, rank: int) -> None:
        """Sleep until handed the baton; raise if the world died meanwhile."""
        self.gates[rank].acquire()
        self.state[rank] = _RUNNING
        key, self.waiting[rank] = self.waiting[rank], None
        if self.deadlocked and key is not None:
            if key == _COLLECTIVE:
                what = "in a collective that not every rank entered"
            else:
                what = f"waiting for rank {key[1]} tag {key[2]}"
            raise DeadlockError(f"rank {rank} deadlocked {what}{self.hint}")
        if self.failure is not None:
            raise _Abort

    def park(self, rank: int, key: _MailKey) -> None:
        """Give up the baton until :meth:`ready` is called for ``key``."""
        if self.failure is not None:
            raise _Abort  # whoever would have readied us may be gone
        self.state[rank] = _PARKED
        self.waiting[rank] = key
        self._hand_off(rank)
        self.take(rank)

    def ready(self, rank: int) -> None:
        """What ``rank`` is parked on has happened; it may run again."""
        self.waiting[rank] = None
        self.state[rank] = _READY

    def fail(self, rank: int, exc: BaseException) -> None:
        """Record a rank's exception and release every parked rank (they
        wake into :meth:`take`, which aborts them)."""
        if self.failure is None:
            self.failure = (rank, exc)
        for r in range(self.nranks):
            if self.state[r] == _PARKED:
                self.state[r] = _READY

    def retire(self, rank: int) -> None:
        """``rank``'s body has returned or unwound; pass the baton on."""
        self.state[rank] = _DONE
        self._hand_off(rank)

    def _hand_off(self, rank: int) -> None:
        """Open the gate of the next ready rank after ``rank``, cyclically.

        If none is ready but some are parked, nothing can ever ready
        them — only a running rank sends or enters a collective — so
        that is a deadlock, exactly: wake them all, one after another,
        to raise it.
        """
        nxt = self._next(rank, _READY)
        if nxt is None:
            nxt = self._next(rank, _PARKED)
            if nxt is None:
                return  # every rank is done
            self.deadlocked = True
            for r in range(self.nranks):
                if self.state[r] == _PARKED:
                    self.state[r] = _READY
        self.gates[nxt].release()

    def _next(self, rank: int, state: int) -> int | None:
        """First rank in ``state`` after ``rank`` (itself last)."""
        for step in range(1, self.nranks + 1):
            r = (rank + step) % self.nranks
            if self.state[r] == state:
                return r
        return None


class _CollectiveContext:
    """Shared state for one communicator's collectives."""

    def __init__(self, nranks: int):
        self.nranks = nranks
        self.slots: list = [None] * nranks
        self.kinds: list = [None] * nranks
        self.arrived = 0
        self.result: Any = None

    def round(
        self,
        baton: _Baton,
        rank: int,
        value: Any,
        combine: Callable[[list], Any],
        kind: str,
    ) -> Any:
        """Deposit ``value``; the last rank to arrive combines the slots
        (rank order, whatever the arrival order) and readies the rest.

        Every rank must enter the same collective: a round whose ranks
        entered different kinds (a ``barrier`` against an ``allreduce``)
        raises :class:`DeadlockError` on the last to arrive, whose
        combine would otherwise fold mismatched payloads.

        One ``result`` field is enough: the next round cannot complete,
        and overwrite it, before every rank has woken from this one,
        read it and entered again.
        """
        self.slots[rank] = value
        self.kinds[rank] = kind
        self.arrived += 1
        if self.arrived < self.nranks:
            baton.park(rank, _COLLECTIVE)
            return self.result
        self.arrived = 0
        if len(set(self.kinds)) > 1:
            raise DeadlockError("divergent collective: " + ", ".join(
                f"rank {r} entered {k}" for r, k in enumerate(self.kinds)
            ))
        self.result = combine(self.slots)
        for r in range(self.nranks):
            if r != rank:
                baton.ready(r)
        return self.result


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
        self.clock += MPI_CALL_OVERHEAD
        self.stats.comm_seconds += MPI_CALL_OVERHEAD
        eid = self._record(
            "send",
            peer=dest,
            tag=tag,
            nbytes=nbytes,
            detail=type(payload).__qualname__,
        )
        msg = _Message(
            src=self.rank,
            payload=_copy_payload(payload),
            nbytes=nbytes,
            send_clock=self.clock,
            irregular=irregular,
            trace_eid=eid,
        )
        self._world._deliver((dest, self.rank, tag), msg)
        self.stats.messages_sent += 1
        self.stats.bytes_sent += nbytes
        return Request()

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
            arrival = msg.send_clock + transit
            before = self.clock
            self.clock = max(self.clock, arrival) + MPI_CALL_OVERHEAD
            self.stats.comm_seconds += self.clock - before
            self.stats.messages_received += 1
            self.stats.bytes_received += msg.nbytes
            self._record(
                "recv",
                peer=source,
                tag=tag,
                nbytes=msg.nbytes,
                matched=msg.trace_eid,
            )
            return msg.payload

        return Request(complete)

    # -- collectives ----------------------------------------------------------

    def _collective(
        self,
        value: Any,
        combine: Callable[[list], Any],
        nbytes: float,
        kind: str = "collective",
    ) -> Any:
        before = self.clock
        self._record("collective", nbytes=nbytes, detail=kind)
        world = self._world
        result, sync = world._collectives.round(
            world._baton, self.rank, (value, before), _make_sync(combine),
            kind,
        )
        self._leave_collective(before, sync, nbytes)
        return result

    def _leave_collective(self, before: float, sync: float,
                          nbytes: float) -> None:
        """Charge a collective entered at ``before`` whose last rank
        arrived at ``sync``."""
        self.clock = sync + self._world.collective_time(nbytes)
        self.stats.collectives += 1
        self.stats.comm_seconds += self.clock - before

    def barrier(self) -> None:
        self._collective(None, lambda vals: None, nbytes=8, kind="barrier")

    def allreduce(self, value: Any, op: str = "sum") -> Any:
        """Reduce scalars or same-shape arrays across ranks; all get it."""

        def combine(vals: list) -> Any:
            return fold(vals, op)

        nbytes = _payload_bytes(value)
        return _copy_result(
            self._collective(value, combine, nbytes, kind=f"allreduce:{op}")
        )


def _make_sync(combine: Callable[[list], Any]) -> Callable[[list], Any]:
    """Wrap a payload combiner so it also returns the max clock."""

    def wrapped(slots: list) -> tuple[Any, float]:
        values = [v for v, _clk in slots]
        clocks = [clk for _v, clk in slots]
        return combine(values), max(clocks)

    return wrapped


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
        self._reset()
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
    #
    # Everything below is called by the baton holder only.

    def _reset(self, state: int = _READY) -> list[Comm]:
        """Fresh endpoints, scheduler, mailboxes and collective state
        for one run; every rank starts in ``state``."""
        self.comms = [Comm(self, r) for r in range(self.nranks)]
        self._baton = _Baton(
            self.nranks, _TRACE_HINT if self.trace_enabled else "", state
        )
        self._mailboxes: dict[_MailKey, deque[_Message]] = {}
        self._collectives = _CollectiveContext(self.nranks)
        return self.comms

    def _append_event(self, **fields: Any) -> int:
        """Record one trace event; returns its world-global eid."""
        eid = len(self.trace)
        self.trace.append(TraceEvent(eid=eid, **fields))
        return eid

    def _deliver(self, key: _MailKey, msg: _Message) -> None:
        """Queue ``msg`` and ready the destination if it is parked on it."""
        box = self._mailboxes.get(key)
        if box is None:
            box = self._mailboxes[key] = deque()
        box.append(msg)
        if self._baton.waiting[key[0]] == key:
            self._baton.ready(key[0])

    def _collect(self, key: _MailKey) -> _Message:
        """Next message for ``key``, parking the caller until one exists."""
        box = self._mailboxes.get(key)
        if not box:
            self._baton.park(key[0], key)
            box = self._mailboxes[key]
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
        """Start a run whose every rank the *caller* steps, on its own
        thread (module docstring); returns the fresh endpoints in rank
        order.  Nothing can park — there is nobody to hand the baton to
        — so a receive on an empty mailbox, or a collective entered on
        one endpoint alone, raises :class:`DeadlockError` on the spot.
        """
        return self._reset(_DONE)

    def allreduce(self, values: list, op: str = "sum") -> Any:
        """Every rank's :meth:`Comm.allreduce` as one call from a
        :meth:`lockstep` caller: ``values[r]`` is rank ``r``'s
        contribution, folded in rank order.  Each endpoint is charged
        exactly as if it had entered the collective itself."""
        kind = f"allreduce:{op}"
        sizes = [_payload_bytes(v) for v in values]
        for comm, nbytes in zip(self.comms, sizes):
            comm._record("collective", nbytes=nbytes, detail=kind)
        sync = max(comm.clock for comm in self.comms)
        for comm, nbytes in zip(self.comms, sizes):
            comm._leave_collective(comm.clock, sync, nbytes)
        return _copy_result(fold(values, op))

    def run(self, target: Callable[..., Any], *args: Any, **kwargs: Any) -> list:
        """Execute ``target(comm, *args, **kwargs)`` on every rank.

        Returns the per-rank return values in rank order.  An exception
        in any rank unwinds the others and re-raises on the caller as
        :class:`RankFailure` for the first rank that failed (a 1-rank
        world runs inline, so its exception arrives unwrapped).
        """
        comms = self._reset()
        baton = self._baton
        if self.nranks == 1:
            return [target(comms[0], *args, **kwargs)]

        results: list = [None] * self.nranks

        def entry(rank: int) -> None:
            try:
                baton.take(rank)
                results[rank] = target(comms[rank], *args, **kwargs)
            except _Abort:
                pass
            except BaseException as exc:  # noqa: BLE001 - must cross threads
                baton.fail(rank, exc)
            finally:
                baton.retire(rank)

        threads = [
            threading.Thread(target=entry, args=(r,), name=f"simmpi-rank-{r}")
            for r in range(self.nranks)
        ]
        for t in threads:
            t.start()
        baton.gates[0].release()
        for t in threads:
            t.join()
        if baton.failure is not None:
            rank, exc = baton.failure
            raise RankFailure(rank, exc) from exc
        return results

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
