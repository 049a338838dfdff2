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
* :class:`ProcessPool` owns the lifecycle: build + ready handshake,
  ``run`` round-trips over pipes, prompt failure detection (one wait
  over every pipe and process sentinel: a dead or silent worker raises
  :class:`~repro.errors.WorkerCrash` and sets the abort word so the
  survivors unwind too), idempotent ``close``.  Workers are spawned
  once per rank count: a healthy pool's ``close`` parks them, and the
  next pool with as many ranks sends each a ``build`` message instead
  of spawning (:func:`shutdown_parked` stops the parked ones).

Workers run their solves under a private enabled
:class:`~repro.telemetry.spans.Tracer` whenever the master's tracer is
enabled, and ship the recorded spans back over the pipe; the pool
absorbs them into the master tracer so ``python -m repro.telemetry
report`` renders a true multi-core timeline, ``comm.wait`` spans (who
waited for whom) included.
"""

from __future__ import annotations

import gc
import mmap
import multiprocessing as mp
import os
import threading
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from multiprocessing.reduction import recv_handle, send_handle

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

    Must pickle cleanly for the pipe: domains carry only their halo
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


def _worker_main(rank: int, conn: Connection) -> None:
    """Worker process entry point: serve builds and runs until shutdown.

    Pipe protocol (worker side): ``("build", spec, layout, epoch)``,
    followed on the pipe by the pool's slab as a file descriptor,
    rebuilds this rank's share of a solve over that slab and answers
    ``("ready", rank)``; ``("run", params)`` -> ``("done", rank,
    history, spans, instants)``; ``("shutdown",)`` ends the loop.  A
    worker serves one pool's build after another: parked between pools
    it sits in ``conn.recv()``.  Any failure sends ``("error", rank,
    traceback)`` and exits.
    """
    from .driver import run_rank_cycles

    # what the imports built lives as long as the worker: the collector
    # need not scan it again, so a rebuild's collection takes a
    # millisecond, not tens
    gc.collect()
    gc.freeze()
    try:
        while True:
            msg = conn.recv()
            if msg[0] == "shutdown":
                break
            if msg[0] == "build":
                _tag, spec, layout, epoch = msg
                # the last pool's share (and its slab mapping) goes
                # before this one is built
                buf = comm = exchangers = gather = None
                fd = recv_handle(conn)
                try:
                    buf = np.frombuffer(mmap.mmap(fd, 0), dtype=np.float64)
                finally:
                    os.close(fd)
                comm = ProcessComm(rank, layout, buf, spec.timeout, epoch)
                exchangers = []
                for lev, doms in enumerate(spec.doms):
                    dom = doms[rank]
                    x = ProcessExchanger(
                        comm, dom, layout.channels(buf, lev, rank,
                                                   dom.halo.plan),
                        level=lev,
                    )
                    x.sanitize = spec.sanitize
                    exchangers.append(x)
                gather = layout.gather_view(buf)
                # a fresh and a reused worker start cycling on the same
                # heap: no garbage of an earlier share left to collect
                gc.collect()
                conn.send(("ready", rank))
                continue
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
                "done", rank, history,
                list(tracer.spans), list(tracer.instants),
            ))
    except (BrokenPipeError, EOFError):
        pass  # master went away; nothing left to report to
    except BaseException:  # noqa: R007 — reported to the master as WorkerCrash
        # last handler in the process: the failure is not swallowed, it
        # crosses the pipe and resurfaces as WorkerCrash on the master
        try:
            conn.send(("error", rank, traceback.format_exc()))
        except OSError:
            pass
    finally:
        conn.close()


@dataclass
class _Workers:
    """One spawned worker per rank, serving one pool after another."""

    procs: list
    conns: list

    @classmethod
    def spawn(cls, nranks: int) -> "_Workers":
        ctx = mp.get_context("spawn")
        group = cls([], [])
        try:
            for rank in range(nranks):
                parent, child = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main, args=(rank, child),
                    name=f"repro-worker-{rank}", daemon=True,
                )
                proc.start()
                child.close()
                group.procs.append(proc)
                group.conns.append(parent)
        except BaseException:
            group.kill()
            raise
        return group

    def alive(self) -> bool:
        return all(proc.is_alive() for proc in self.procs)

    def stop(self, timeout: float) -> None:
        """Graceful shutdown: ask, wait, then insist."""
        for conn in self.conns:
            try:
                conn.send(("shutdown",))
            except (BrokenPipeError, OSError):
                pass  # already gone; join/terminate below still runs
        for proc in self.procs:
            proc.join(timeout=min(timeout, 10.0))
        self.kill()

    def kill(self) -> None:
        """Terminate whatever still runs, reap it, close the pipes."""
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self.procs:
            proc.join(timeout=5.0)
        for conn in self.conns:
            conn.close()


#: Parked worker groups, one per rank count: the workers of a closed,
#: healthy pool, idle until the next pool of that many ranks takes them.
_PARKED: dict = {}
_PARKED_LOCK = threading.Lock()


def _take_parked(nranks: int) -> _Workers | None:
    """The parked group of ``nranks`` workers, if every one is alive; a
    group with a dead member is stopped."""
    with _PARKED_LOCK:
        group = _PARKED.pop(nranks, None)
    if group is None or group.alive():
        return group
    group.stop(timeout=5.0)
    return None


def _park(nranks: int, group: _Workers) -> None:
    with _PARKED_LOCK:
        displaced = _PARKED.get(nranks)
        _PARKED[nranks] = group
    if displaced is not None:
        displaced.stop(timeout=5.0)


def shutdown_parked() -> None:
    """Stop every parked worker group.  Parked workers are daemonic, so
    interpreter exit does this too; call it to free them sooner."""
    with _PARKED_LOCK:
        groups = list(_PARKED.values())
        _PARKED.clear()
    for group in groups:
        group.stop(timeout=5.0)


class ProcessPool:
    """One worker process per partition, alive until :meth:`close`.

    Successive :meth:`run` calls reuse the warm workers (and their
    built domains), which is what makes the wall-clock benchmark honest
    about steady-state cycling.  Workers are spawned once per rank
    count per interpreter: :meth:`close` on a healthy pool *parks* its
    workers, and the next pool with as many ranks takes them and has
    each rebuild its share from the new spec over the new pool's slab
    — the nengo_mpi lifecycle (spawn once, wake per run, kill at the
    end).
    """

    def __init__(self, hierarchy: DomainHierarchy, kernels: object, *,
                 nvar: int, overlap: bool = False, sanitize: bool = False,
                 timeout: float = 120.0) -> None:
        self.nranks = hierarchy.nparts
        self.timeout = float(timeout)
        self.layout = SharedLayout.build(hierarchy, nvar)
        self._epoch = time.monotonic()
        self.closed = False
        specs = [
            self._make_spec(hierarchy, kernels, rank, overlap, sanitize)
            for rank in range(self.nranks)
        ]
        # the pool's own slab, zero-filled: an anonymous shared file
        # (Linux memfd) each worker maps through the descriptor its
        # pipe carries
        fd = os.memfd_create("repro-slab")
        try:
            os.ftruncate(fd, 8 * self.layout.total)
            self._buf = np.frombuffer(mmap.mmap(fd, 0), dtype=np.float64)
            self._workers = (_take_parked(self.nranks)
                             or _Workers.spawn(self.nranks))
            self._procs, self._conns = self._workers.procs, self._workers.conns
            try:
                self._send([
                    ("build", spec, self.layout, self._epoch)
                    for spec in specs
                ], fd=fd)
                self._replies("ready")
            except BaseException:
                self._fail()
                raise
        finally:
            os.close(fd)

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

    # -- messaging and failure handling --------------------------------------

    def _send(self, messages: list, fd: int | None = None) -> None:
        """One message per worker, in rank order, each followed by the
        descriptor ``fd`` when one is given."""
        for rank, (conn, msg) in enumerate(zip(self._conns, messages)):
            try:
                conn.send(msg)
                if fd is not None:
                    send_handle(conn, fd, self._procs[rank].pid)
            except OSError:  # BrokenPipeError included
                raise WorkerCrash(self._gone(rank, "closed its pipe")) from None

    def _gone(self, rank: int, what: str) -> str:
        proc = self._procs[rank]
        proc.join(timeout=1.0)  # an exited worker's code, once reaped
        return f"worker {rank} {what} (exit code {proc.exitcode})"

    def _replies(self, tag: str) -> list:
        """One ``tag`` reply per worker, in rank order.

        One wait covers every pending pipe and every worker's process
        sentinel, so a worker's error or death surfaces as
        :class:`WorkerCrash`, naming its rank, the moment it happens —
        not after the slowest rank — and silence past ``timeout`` does
        too.
        """
        rank_of = {}
        for rank, (conn, proc) in enumerate(zip(self._conns, self._procs)):
            rank_of[conn] = rank_of[proc.sentinel] = rank
        replies: list = [None] * self.nranks
        pending = set(range(self.nranks))
        deadline = time.monotonic() + self.timeout
        while pending:
            ready = wait(
                [self._conns[r] for r in pending]
                + [self._procs[r].sentinel for r in pending],
                timeout=max(deadline - time.monotonic(), 0.0),
            )
            if not ready:
                raise WorkerCrash(
                    f"workers {sorted(pending)} sent nothing for "
                    f"{self.timeout:.0f}s"
                )
            for rank in sorted({rank_of[obj] for obj in ready} & pending):
                conn = self._conns[rank]
                # a worker that replied and then exited has both ready;
                # a pipe at EOF polls ready and then fails to read
                if not conn.poll(0):
                    raise WorkerCrash(self._gone(rank, "died"))
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    raise WorkerCrash(self._gone(
                        rank, "closed its pipe unexpectedly")) from None
                if msg[0] == "error":
                    raise WorkerCrash(f"worker {rank} raised:\n{msg[2]}")
                if msg[0] != tag:
                    raise WorkerCrash(
                        f"worker {rank} sent {msg!r} instead of {tag!r}"
                    )
                replies[rank] = msg
                pending.discard(rank)
                deadline = time.monotonic() + self.timeout
        return replies

    def _fail(self) -> None:
        """Hard teardown after a fault: set the abort word so live
        workers leave their waits, then terminate everything.  A failed
        pool's workers are never parked."""
        self.closed = True
        *_scratch, abort = self.layout.coll_views(self._buf)
        abort[0] = 1.0
        self._workers.kill()

    # -- public surface ------------------------------------------------------

    def run(self, *, ncycles: int, cfl: float, cycle: str = "W") -> tuple:
        """One solve on the warm pool; returns ``(q_global, history)``."""
        if self.closed:
            raise RuntimeClosed(
                "ProcessPool is closed; the driver starts a fresh pool "
                "on the next solve"
            )
        master = get_tracer()
        params = {
            "ncycles": ncycles, "cfl": cfl, "cycle": cycle,
            "trace": master.enabled,
        }
        try:
            self._send([("run", params)] * self.nranks)
            replies = self._replies("done")
        except BaseException:
            if not self.closed:
                self._fail()
            raise
        for _tag, _rank, _history, spans, instants in replies:
            if spans or instants:
                master.absorb(spans, instants)
        return self.layout.gather_view(self._buf).copy(), replies[0][2]

    def close(self) -> None:
        """Idempotent.  Parks the workers for the next pool of
        ``nranks`` ranks, or stops them if one has died (a failed pool
        is closed already, by :meth:`_fail`)."""
        if self.closed:
            return
        self.closed = True
        if self._workers.alive():
            _park(self.nranks, self._workers)
        else:
            self._workers.stop(self.timeout)
