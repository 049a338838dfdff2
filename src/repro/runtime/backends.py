"""Pluggable comm backends for the distributed solve driver.

Solver kernels operate on per-partition state dicts (``{pid: array}``)
and talk to one small Exchanger surface — ``copy``, ``add``,
``start_copy`` and ``charge`` — so the same kernel runs under pure MPI
(one partition per rank, :class:`~repro.comm.exchange.ExchangePlan`),
the paper's hybrid master-thread model (several partitions per process,
:class:`~repro.comm.hybrid.HybridProcess`, fig. 7b), or real spawned
worker processes (:class:`ProcessExchanger`, shared-memory halo
buffers) without change.

``start_copy`` is the overlapped-exchange entry point (post sends,
compute interior, finish boundary).  The hybrid backend is already
internally overlapped — its intra-process copies run while inter-process
messages are in transit — so its ``start_copy`` completes eagerly and
returns an already-finished pending.  The process backend's window is
*real* concurrency: between the post barrier and the finish barrier
every worker computes its interior on its own core.

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

import numpy as np

from ..errors import ConfigurationError, ExchangeLifecycleError
from ..telemetry.spans import span as _span


class PendingGroup:
    """A batch of in-flight owner->ghost exchanges (one per partition).

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
                exc.add_note(
                    f"while finishing the exchange of partition {pid}"
                )
                raise
        # only a fully closed group is done — a mid-loop failure leaves
        # the group open so the remaining members can still be drained
        self.done = True


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

    def start_copy(self, arrays: dict, tag: int = 0):
        group = PendingGroup([
            self.plans[pid].start_copy(self.comm, arrays[pid], tag)
            for pid in sorted(arrays)
        ])
        if self.sanitize:
            from .sanitizer import GhostSanitizer

            return GhostSanitizer(self.plans).guard(arrays, group)
        return group

    def charge(self, flops: float) -> None:
        if self.charging and flops > 0.0:
            self.comm.compute(flops=flops)


class HybridExchanger:
    """Hybrid backend: one :class:`HybridProcess` serving all partitions
    of this MPI process (paper fig. 7b master-thread model)."""

    kind = "hybrid"

    def __init__(self, comm, process):
        self.comm = comm
        self.process = process
        self.charging = False
        #: accepted for interface symmetry; the hybrid backend has no
        #: overlap window to sanitize (``start_copy`` completes eagerly)
        self.sanitize = False

    def copy(self, arrays: dict, tag: int = 0) -> None:
        self.process.exchange_copy(self.comm, arrays, tag)

    def add(self, arrays: dict, tag: int = 1) -> None:
        self.process.exchange_add(self.comm, arrays, tag)

    def start_copy(self, arrays: dict, tag: int = 0) -> PendingGroup:
        # intrinsically overlapped: intra-process copies already run
        # while inter-process messages are in flight.  A fresh group per
        # call (not a shared sentinel) keeps the exactly-once ``finish``
        # contract enforceable.
        self.copy(arrays, tag)
        return PendingGroup([])

    def charge(self, flops: float) -> None:
        if self.charging and flops > 0.0:
            self.comm.compute(flops=flops)


class _ProcessPending:
    """The open half of a :class:`ProcessExchanger` overlap window.

    ``finish`` reads the peers' published owned rows into this worker's
    ghost slots, then passes the completion barrier that lets everyone
    reuse the shared buffers.
    """

    def __init__(self, exchanger: "ProcessExchanger", pid: int,
                 arr: np.ndarray, tag: int):
        self.x = exchanger
        self.plan = exchanger.plans[pid]
        self.arr = arr
        self.tag = tag
        self.done = False

    def finish(self) -> np.ndarray:
        if self.done:
            raise ExchangeLifecycleError(
                f"PendingExchange.finish called twice (rank "
                f"{self.plan.rank}, tag {self.tag}); each overlap window "
                f"must be closed exactly once"
            )
        self.done = True
        with _span("comm.exchange_copy_finish", cat="comm", tag=self.tag,
                   neighbors=self.plan.degree()):
            self.x._read_ghosts(self.plan, self.arr)
            self.x._wait()
        return self.arr


class ProcessExchanger:
    """Real multi-core backend: shared-memory halo exchange between
    spawned worker processes, synchronized by a two-phase barrier.

    Each worker owns exactly one partition.  For every directed
    neighbor pair the :class:`~repro.runtime.process.ProcessPool`
    allocates a flat float64 block in one shared slab; ``channels``
    maps neighbor rank -> ``(out, inbound)`` views of this worker's
    send and receive blocks.  Every collective operation is two barrier
    phases over the whole pool:

    * **publish** — write the rows the plan says each peer needs, then
      barrier (all data is now visible);
    * **consume** — read the peers' blocks into local slots, then
      barrier (all buffers are reusable).

    ``start_copy`` performs only the publish phase and returns a
    pending whose ``finish`` runs the consume phase — so between the
    two barriers all workers compute their interiors concurrently on
    separate cores, which is the paper's fig. 7 overlap made real.
    The kernels' SPMD structure (every rank issues the same exchange
    sequence) is what makes untagged barrier pairing sound; message
    tags are accepted for interface compatibility and recorded on
    telemetry spans only.

    Floating-point parity with :class:`PlanExchanger` holds because
    ``add`` accumulates at owners in the same sorted-neighbor order
    and the owner/ghost slot orderings are the plan's own.
    """

    kind = "process"

    def __init__(self, comm, plans: dict, channels: dict):
        self.comm = comm
        self.plans = plans
        #: neighbor rank -> (out view, inbound view): flat float64
        #: blocks of the pool's shared slab
        self.channels = channels
        #: accepted for symmetry; real wall clocks need no charging
        self.charging = False
        self.sanitize = False

    def _wait(self) -> None:
        self.comm.wait()

    def _publish(self, plan, arr: np.ndarray, slots: dict) -> None:
        """Write ``arr[slots[q]]`` into the out-block of each neighbor."""
        k = int(np.prod(arr.shape[1:], dtype=np.int64)) or 1
        for q in plan.neighbors:
            rows = slots.get(q)
            if rows is None or not len(rows):
                continue
            out, _inbound = self.channels[q]
            n = len(rows) * k
            if n > len(out):
                raise ConfigurationError(
                    f"shared halo block for pair ({plan.rank}->{q}) "
                    f"holds {len(out)} doubles, need {n}"
                )
            out[:n] = arr[rows].reshape(-1)

    def _read_ghosts(self, plan, arr: np.ndarray) -> None:
        k = int(np.prod(arr.shape[1:], dtype=np.int64)) or 1
        for q in plan.neighbors:
            rows = plan.ghost_slots.get(q)
            if rows is None or not len(rows):
                continue
            _out, inbound = self.channels[q]
            arr[rows] = inbound[: len(rows) * k].reshape(
                (len(rows),) + arr.shape[1:]
            )

    def copy(self, arrays: dict, tag: int = 0) -> None:
        for pid in sorted(arrays):
            plan = self.plans[pid]
            with _span("comm.exchange_copy", cat="comm", tag=tag,
                       neighbors=plan.degree()):
                self._publish(plan, arrays[pid], plan.owned_slots)
                self._wait()
                self._read_ghosts(plan, arrays[pid])
                self._wait()

    def add(self, arrays: dict, tag: int = 1) -> None:
        for pid in sorted(arrays):
            plan = self.plans[pid]
            arr = arrays[pid]
            with _span("comm.exchange_add", cat="comm", tag=tag,
                       neighbors=plan.degree()):
                self._publish(plan, arr, plan.ghost_slots)
                for q in plan.neighbors:
                    rows = plan.ghost_slots.get(q)
                    if rows is not None and len(rows):
                        arr[rows] = 0.0
                self._wait()
                k = int(np.prod(arr.shape[1:], dtype=np.int64)) or 1
                # accumulate in sorted-neighbor order: the same
                # summation order as PlanExchanger, hence bit parity
                for q in plan.neighbors:
                    rows = plan.owned_slots.get(q)
                    if rows is None or not len(rows):
                        continue
                    _out, inbound = self.channels[q]
                    # rows never repeats a slot (see
                    # ExchangePlan._exchange_add)
                    arr[rows] += inbound[: len(rows) * k].reshape(
                        (len(rows),) + arr.shape[1:]
                    )
                self._wait()

    def start_copy(self, arrays: dict, tag: int = 0):
        pendings = []
        for pid in sorted(arrays):
            plan = self.plans[pid]
            with _span("comm.exchange_copy_start", cat="comm", tag=tag,
                       neighbors=plan.degree()):
                self._publish(plan, arrays[pid], plan.owned_slots)
                self._wait()
            pendings.append(_ProcessPending(self, pid, arrays[pid], tag))
        group = PendingGroup(pendings)
        if self.sanitize:
            from .sanitizer import GhostSanitizer

            return GhostSanitizer(self.plans).guard(arrays, group)
        return group

    def charge(self, flops: float) -> None:
        """No-op: the process backend's clock is the real one."""


def make_exchanger(backend: str, comm, *, plans: dict | None = None,
                   process=None, channels: dict | None = None):
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
        return ProcessExchanger(comm, plans or {}, channels or {})
    raise ConfigurationError(
        f"unknown exchanger backend {backend!r}; choose 'sim', "
        "'hybrid' or 'process'"
    )
