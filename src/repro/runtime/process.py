"""Spawned worker pool for the ``process`` backend (PR 7 tentpole).

This is the only execution model in the tree whose parallelism is real:
one OS process per partition, each running
:func:`~repro.runtime.driver.run_rank_cycles` on its own core, with
halo traffic through a single shared float64 slab instead of simulated
messages.  The structure follows nengo_mpi's master/worker split —
spawn once, build-from-spec in the worker, run N steps on command,
gather — adapted to the Exchanger protocol:

* :class:`SharedLayout` carves the slab: one block per directed
  neighbor pair per level (sequence header, then the widest payload,
  the ``nvar x nvar`` block diagonals), a ``(2, nranks,
  COLLECTIVE_CAP)`` collective scratch with a ``coll_seq`` word per
  rank and the abort word, one ``(nglobal, nvar)`` gather region.
* :class:`WorkerSpec` is the picklable build recipe a worker receives:
  its per-level :class:`~repro.runtime.domain.DistributedDomain` (halo
  + payload, caches dropped), cluster maps, the kernels object, and the
  exchange-mode flags.
* :class:`ProcessComm` gives workers the tiny comm surface the kernels
  use — ``rank``/``clock``/``allreduce`` — and the backend's one way
  to synchronise: ``store_seq``/``await_seq`` on sequence words in the
  slab, each written by one named peer; nobody waits on the pool.
  ``allreduce`` combines rows in rank order, SimMPI's ``fold`` order,
  so the parity gate holds bit-for-bit across backends.
* :class:`ProcessPool` owns the lifecycle: spawn + ready handshake,
  ``run`` round-trips over pipes, prompt failure detection (a dead or
  silent worker raises :class:`~repro.errors.WorkerCrash` and sets the
  abort word so the survivors unwind too), idempotent ``close``.

Workers run their solves under a private enabled
:class:`~repro.telemetry.spans.Tracer` whenever the master's tracer is
enabled, and ship the recorded spans back over the pipe; the pool
absorbs them into the master tracer so ``python -m repro.telemetry
report`` renders a true multi-core timeline, ``comm.wait`` spans (who
waited for whom) included.
"""

from __future__ import annotations

import ctypes
import multiprocessing as mp
import os
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import Connection
from multiprocessing.sharedctypes import RawArray

import numpy as np

from ..comm.simmpi import fold
from ..errors import ConfigurationError, RuntimeClosed, WorkerCrash
from ..telemetry.spans import Tracer, get_tracer, set_tracer, span as _span
from .backends import HEADER, ProcessExchanger
from .domain import DistributedDomain, DomainHierarchy

#: Doubles of per-rank scratch for one collective; kernels reduce tiny
#: vectors (residual norms, physicality counts), so this is generous.
COLLECTIVE_CAP = 32
#: Doubles per cache line: words different ranks write sit this far
#: apart, so one's store never invalidates the line another polls.
LINE = 8
#: A wait is ``SPIN`` polls (a round trip between two running workers
#: takes a few), then ``sched_yield`` for ``YIELD_S`` seconds (an
#: oversubscribed peer gets the core), then sleeps doubling up to
#: ``NAP_CAP`` (a hung peer costs no core).
SPIN, YIELD_S, NAP_CAP = 400, 1.0e-3, 2.0e-3


@dataclass(frozen=True)
class SharedLayout:
    """Offsets into the pool's one shared float64 slab.

    ``pair_offsets[(level, src, dst)]`` locates the block ``src``
    publishes for ``dst`` on ``level`` (capacity in doubles, ``HEADER``
    included); the collective and gather regions follow the pair
    blocks.  Built once on the master and shipped to every worker, so
    all processes carve identical views.
    """

    pair_offsets: dict
    coll_offset: int
    gather_offset: int
    gather_shape: tuple
    nranks: int
    total: int

    @classmethod
    def build(cls, hierarchy: DomainHierarchy, nvar: int) -> "SharedLayout":
        # widest exchanged payload: the (nvar, nvar) smoother diagonals
        width = nvar * nvar
        offset = 0
        pair_offsets = {}
        for lev in range(hierarchy.nlevels):
            domains = hierarchy.levels[lev].domains
            for p in range(hierarchy.nparts):
                plan = domains[p].halo.plan
                for q in plan.neighbors:
                    rows = max(
                        len(plan.owned_slots.get(q, ())),
                        len(plan.ghost_slots.get(q, ())),
                    )
                    cap = HEADER + -(-rows * width // LINE) * LINE
                    pair_offsets[(lev, p, q)] = (offset, cap)
                    offset += cap
        coll_offset = offset
        # two scratch parities, a coll_seq line per rank, the abort line
        offset += hierarchy.nparts * (2 * COLLECTIVE_CAP + LINE) + LINE
        gather_offset = offset
        gather_shape = (hierarchy.levels[0].nglobal, nvar)
        offset += gather_shape[0] * gather_shape[1]
        return cls(
            pair_offsets=pair_offsets,
            coll_offset=coll_offset,
            gather_offset=gather_offset,
            gather_shape=gather_shape,
            nranks=hierarchy.nparts,
            total=offset,
        )

    def channels(self, buf: np.ndarray, level: int, rank: int,
                 plan: object) -> dict:
        """``{neighbor: (out, inbound)}`` views for one worker+level."""
        out = {}
        for q in plan.neighbors:
            o_off, o_cap = self.pair_offsets[(level, rank, q)]
            i_off, i_cap = self.pair_offsets[(level, q, rank)]
            out[q] = (buf[o_off:o_off + o_cap], buf[i_off:i_off + i_cap])
        return out

    def coll_views(self, buf: np.ndarray) -> tuple:
        """``(scratch[parity, rank, :], coll_seq[rank], abort[0])``."""
        n = 2 * self.nranks * COLLECTIVE_CAP
        seq = self.coll_offset + n
        end = seq + self.nranks * LINE
        return (
            buf[self.coll_offset:seq].reshape(2, self.nranks, COLLECTIVE_CAP),
            buf[seq:end:LINE], buf[end:end + 1],
        )

    def gather_view(self, buf: np.ndarray) -> np.ndarray:
        n = self.gather_shape[0] * self.gather_shape[1]
        return buf[self.gather_offset:self.gather_offset + n].reshape(
            self.gather_shape
        )


@dataclass
class WorkerSpec:
    """Everything one worker needs to rebuild its share of the solve.

    Must pickle cleanly for ``spawn``: domains carry only their halo
    and payload (scratch caches are dropped on the master), kernels are
    plain config + coefficient state.
    """

    rank: int
    nranks: int
    #: per level: {rank: DistributedDomain} restricted to this worker
    doms: list
    #: per level gap: {rank: owned-fine-row -> local coarse slot}
    cluster_local: list
    kernels: object
    overlap: bool
    sanitize: bool
    timeout: float


class ProcessComm:
    """The kernels' comm surface, and the backend's one way to wait.

    All synchronisation is two calls on a *sequence word* of the slab
    that one process alone writes: :meth:`store_seq` says "everything I
    wrote before this is yours", :meth:`await_seq` blocks until a named
    peer has said so.  A dead or hung peer — or the pool's abort word —
    surfaces as :class:`WorkerCrash`, so the pool unwinds instead of
    deadlocking.  ``clock`` reads real elapsed seconds from the pool's
    shared epoch (``time.monotonic`` is system-wide on Linux), so the
    per-rank telemetry tracks share one time base.
    """

    def __init__(self, rank: int, layout: SharedLayout, buf: np.ndarray,
                 timeout: float, epoch: float) -> None:
        self.rank = rank
        self.nranks = layout.nranks
        self._coll, self._coll_seq, self._abort = layout.coll_views(buf)
        self._seq, self._timeout, self._epoch = 0, timeout, epoch

    @property
    def clock(self) -> float:
        return time.monotonic() - self._epoch

    @staticmethod
    def store_seq(words: np.ndarray, i: int, seq: int) -> None:
        """Release point: ``words[i] = seq`` must become visible after
        every store the caller made before it.  x86-64 is total store
        order (stores retire in program order, an aligned 8-byte store
        is atomic), so the plain store does; a weaker machine (ARM,
        POWER) needs a store-release fence above it, here only."""
        words[i] = seq

    def await_seq(self, words: np.ndarray, i: int, seq: int, *,
                  level: int | None, peer: int, what: str) -> None:
        """Acquire point: return once ``words[i] >= seq``; the caller's
        payload loads must not pass this load.  x86-64 keeps loads in
        order; a weaker machine needs a load-acquire fence before the
        return, here only.  A wait that outlasts the spin phase is a
        ``comm.wait`` span on a traced run, and from then on every pass
        checks the abort word and ``worker_timeout``."""
        for _ in range(SPIN):
            if words[i] >= seq:
                return
        with _span("comm.wait", cat="comm", level=level, peer=peer,
                   what=what, seq=seq):
            start, nap = time.monotonic(), 2.0e-5
            while words[i] < seq:
                waited = time.monotonic() - start
                if self._abort[0] or waited > self._timeout:
                    raise WorkerCrash(
                        f"rank {self.rank} waited {waited:.1f}s for rank "
                        f"{peer} ({what} >= {seq}, level {level}): the "
                        "pool was aborted, or that worker died or hung"
                    )
                if waited < YIELD_S:
                    os.sched_yield()
                else:
                    time.sleep(nap)
                    nap = min(2.0 * nap, NAP_CAP)

    def allreduce(self, parts: dict, op: str = "sum") -> np.ndarray:
        """Reduce ``{pid: small array}`` contributions across all workers.

        This worker's partitions fold in pid order, then the workers'
        rows in ascending rank order — the association of
        :class:`~repro.runtime.backends.LockstepComm` — so reductions
        are bit-identical across backends.  The row goes into the
        scratch half of this collective's parity: a rank already in the
        next one writes the other half, and none reaches the one after
        before every rank has left this one.
        """
        arr = np.asarray(
            fold([parts[p] for p in sorted(parts)], op), dtype=np.float64
        )
        flat = arr.reshape(-1)
        if len(flat) > COLLECTIVE_CAP:
            raise ConfigurationError(
                f"allreduce payload of {len(flat)} doubles exceeds the "
                f"collective scratch ({COLLECTIVE_CAP})"
            )
        self._seq = seq = self._seq + 1
        rows = self._coll[seq % 2, :, :len(flat)]
        rows[self.rank] = flat
        self.store_seq(self._coll_seq, self.rank, seq)
        for r in range(self.nranks):
            self.await_seq(self._coll_seq, r, seq, level=None, peer=r,
                           what="allreduce")
        # a copy: the scratch is rewritten two collectives on
        return np.array(fold(list(rows), op)).reshape(arr.shape)


def _worker_main(spec: WorkerSpec, layout: SharedLayout, raw: ctypes.Array,
                 conn: Connection, epoch: float) -> None:
    """Worker process entry point: build from spec, then serve commands.

    Pipe protocol (worker side): send ``("ready", rank)`` once built;
    then loop on ``("run", params)`` -> ``("done", rank, history,
    spans, instants)`` until ``("shutdown",)``.  Any failure sends
    ``("error", rank, traceback)`` and exits.
    """
    from .driver import run_rank_cycles

    try:
        buf = np.frombuffer(raw, dtype=np.float64)
        comm = ProcessComm(spec.rank, layout, buf, spec.timeout, epoch)
        exchangers = []
        for lev, doms in enumerate(spec.doms):
            dom = doms[spec.rank]
            x = ProcessExchanger(
                comm, dom, layout.channels(buf, lev, spec.rank, dom.halo.plan),
                level=lev,
            )
            x.sanitize = spec.sanitize
            exchangers.append(x)
        gather = layout.gather_view(buf)
        conn.send(("ready", spec.rank))
        while True:
            msg = conn.recv()
            if msg[0] == "shutdown":
                break
            params = dict(msg[1])
            trace = params.pop("trace", False)
            tracer = set_tracer(Tracer(enabled=bool(trace)))
            owned, history = run_rank_cycles(
                comm, exchangers, spec.doms, spec.cluster_local,
                spec.kernels, overlap=spec.overlap, **params,
            )
            for gids, rows in owned:
                gather[gids] = rows
            conn.send((
                "done", spec.rank, history,
                list(tracer.spans), list(tracer.instants),
            ))
    except (BrokenPipeError, EOFError):
        pass  # master went away; nothing left to report to
    except BaseException:  # noqa: R007 — reported to the master as WorkerCrash
        # last handler in the process: the failure is not swallowed, it
        # crosses the pipe and resurfaces as WorkerCrash on the master
        try:
            conn.send(("error", spec.rank, traceback.format_exc()))
        except OSError:
            pass
    finally:
        conn.close()


class ProcessPool:
    """One spawned worker per partition, alive until :meth:`close`.

    Spawn cost is paid once per pool — successive :meth:`run` calls
    reuse the warm workers (and their built domains), which is what
    makes the wall-clock benchmark honest about steady-state cycling.
    """

    def __init__(self, hierarchy: DomainHierarchy, kernels: object, *,
                 nvar: int, overlap: bool = False, sanitize: bool = False,
                 timeout: float = 120.0) -> None:
        ctx = mp.get_context("spawn")
        self.nranks = hierarchy.nparts
        self.timeout = float(timeout)
        self.layout = SharedLayout.build(hierarchy, nvar)
        self._raw = RawArray(ctypes.c_double, self.layout.total)
        self._buf = np.frombuffer(self._raw, dtype=np.float64)
        self._epoch = time.monotonic()
        self._procs: list = []
        self._conns: list = []
        self.closed = False
        try:
            for rank in range(self.nranks):
                parent, child = ctx.Pipe()
                spec = self._make_spec(hierarchy, kernels, rank, overlap,
                                       sanitize)
                proc = ctx.Process(
                    target=_worker_main,
                    args=(spec, self.layout, self._raw, child, self._epoch),
                    name=f"repro-worker-{rank}",
                    daemon=True,
                )
                proc.start()
                child.close()
                self._procs.append(proc)
                self._conns.append(parent)
            for rank in range(self.nranks):
                msg = self._recv(rank)
                if msg != ("ready", rank):
                    raise WorkerCrash(
                        f"worker {rank} sent {msg!r} instead of the "
                        "ready handshake"
                    )
        except BaseException:
            self._fail()
            raise

    def _make_spec(self, hierarchy: DomainHierarchy, kernels: object,
                   rank: int, overlap: bool,
                   sanitize: bool) -> WorkerSpec:
        # fresh domains (same halo + payload, empty caches): the scratch
        # caches can hold closures and frozen operators that don't pickle
        doms = [
            {rank: DistributedDomain(d.halo, d.ctx)}
            for d in (
                hierarchy.levels[lev].domains[rank]
                for lev in range(hierarchy.nlevels)
            )
        ]
        cluster_local = [
            {rank: hierarchy.cluster_local[lev][rank]}
            for lev in range(hierarchy.nlevels - 1)
        ]
        return WorkerSpec(
            rank=rank, nranks=self.nranks, doms=doms,
            cluster_local=cluster_local, kernels=kernels, overlap=overlap,
            sanitize=sanitize, timeout=self.timeout,
        )

    # -- failure handling ----------------------------------------------------

    def _recv(self, rank: int) -> tuple:
        """One worker's next message, or :class:`WorkerCrash` if it is
        dead or silent past the timeout."""
        conn, proc = self._conns[rank], self._procs[rank]
        deadline = time.monotonic() + self.timeout
        while True:
            try:
                if conn.poll(0.1):
                    return conn.recv()
            except (EOFError, OSError):
                raise WorkerCrash(
                    f"worker {rank} closed its pipe unexpectedly "
                    f"(exit code {proc.exitcode})"
                ) from None
            if not proc.is_alive() and not conn.poll(0):
                raise WorkerCrash(
                    f"worker {rank} died (exit code {proc.exitcode})"
                )
            if time.monotonic() > deadline:
                raise WorkerCrash(
                    f"worker {rank} sent nothing for {self.timeout:.0f}s"
                )

    def _fail(self) -> None:
        """Hard teardown after a fault: set the abort word so live
        workers leave their waits, then terminate everything."""
        self.closed = True
        *_scratch, abort = self.layout.coll_views(self._buf)
        abort[0] = 1.0
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=5.0)
        for conn in self._conns:
            conn.close()

    # -- public surface ------------------------------------------------------

    def run(self, *, ncycles: int, cfl: float, cycle: str = "W",
            nu1: int = 1, nu2: int = 1,
            coarse_cfl: float | None = None) -> tuple:
        """One solve on the warm pool; returns ``(q_global, history)``."""
        if self.closed:
            raise RuntimeClosed(
                "ProcessPool is closed; the driver spawns a fresh pool "
                "on the next solve"
            )
        master = get_tracer()
        params = {
            "ncycles": ncycles, "cfl": cfl, "cycle": cycle, "nu1": nu1,
            "nu2": nu2, "coarse_cfl": coarse_cfl, "trace": master.enabled,
        }
        try:
            for conn in self._conns:
                try:
                    conn.send(("run", params))
                except (BrokenPipeError, OSError):
                    raise WorkerCrash(
                        "a worker's pipe is gone; the pool is broken"
                    ) from None
            histories = self._collect(master)
        except BaseException:
            if not self.closed:
                self._fail()
            raise
        return self.layout.gather_view(self._buf).copy(), histories[0]

    def _collect(self, master: Tracer) -> dict:
        """Drain one reply per worker, polling round-robin so an error
        from any rank surfaces promptly (not after the slowest)."""
        histories: dict = {}
        pending = set(range(self.nranks))
        deadline = time.monotonic() + self.timeout
        while pending:
            progressed = False
            for rank in sorted(pending):
                conn, proc = self._conns[rank], self._procs[rank]
                try:
                    # a pipe at EOF polls ready and then fails to read
                    msg = conn.recv() if conn.poll(0.05) else None
                except (EOFError, OSError):
                    raise WorkerCrash(
                        f"worker {rank} closed its pipe unexpectedly "
                        f"(exit code {proc.exitcode})"
                    ) from None
                if msg is not None:
                    if msg[0] == "error":
                        raise WorkerCrash(
                            f"worker {rank} raised:\n{msg[2]}"
                        )
                    _tag, _rank, history, spans, instants = msg
                    histories[rank] = history
                    if spans or instants:
                        master.absorb(spans, instants)
                    pending.discard(rank)
                    progressed = True
                    deadline = time.monotonic() + self.timeout
                elif not proc.is_alive() and not conn.poll(0):
                    raise WorkerCrash(
                        f"worker {rank} died mid-solve "
                        f"(exit code {proc.exitcode})"
                    )
            if not progressed and time.monotonic() > deadline:
                raise WorkerCrash(
                    f"workers {sorted(pending)} sent nothing for "
                    f"{self.timeout:.0f}s"
                )
        return histories

    def close(self) -> None:
        """Graceful, idempotent shutdown: ask, wait, then insist."""
        if self.closed:
            return
        self.closed = True
        for conn in self._conns:
            try:
                conn.send(("shutdown",))
            except (BrokenPipeError, OSError):
                pass  # already gone; join/terminate below still runs
        for proc in self._procs:
            proc.join(timeout=min(self.timeout, 10.0))
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for conn in self._conns:
            conn.close()
