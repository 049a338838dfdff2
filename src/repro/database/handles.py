"""What a caller of the fill runtime holds: the :class:`CaseHandle`
``FillRuntime.submit`` returns, the :class:`JobOutcome` it resolves to,
and the :class:`FillReport` of one ``run_tree`` campaign.  The runtime
keeps a handle only while its case is in flight; after that the
:class:`~repro.database.resultstore.ResultStore` is the only record of a
finished case."""

from __future__ import annotations

import asyncio
import concurrent.futures
from concurrent.futures import Future
from dataclasses import dataclass

from .. import errors
from ..solvers.interface import CaseResult, CaseSpec


@dataclass
class JobOutcome:
    """Terminal state of one submitted case."""

    spec: CaseSpec
    state: str  # "done" | "cached" | "failed" | "cancelled" | "crashed"
    result: CaseResult | None = None
    attempts: int = 0
    slot: int | None = None
    start: float = 0.0
    end: float = 0.0
    error: str | None = None
    degraded: bool = False  # completed on the fallback fidelity


class CaseHandle:
    """Future-like handle returned by :meth:`FillRuntime.submit`.

    ``hit`` is True when the submission was satisfied without a new
    execution: it shares an identical in-flight case's future, or the
    store already held the result.

    Blocking accessors take an optional ``timeout`` (seconds); the
    awaitable bridge (:meth:`wait`, or ``await handle``) parks an
    asyncio caller without blocking the event loop — this is how the
    :class:`~repro.service.DatabaseService` front end rides the fill
    runtime's thread pool.  A timeout never cancels the underlying
    attempt (the runtime cannot preempt a running solve); it only stops
    waiting, so a later wait on the same handle can still succeed.
    """

    def __init__(self, spec: CaseSpec, hit: bool = False):
        self.spec = spec
        self.key = spec.key
        self.hit = hit
        self._future: Future | None = None
        self._outcome: JobOutcome | None = None

    def outcome(self, timeout: float | None = None) -> JobOutcome:
        """Block until the case reaches a terminal state.

        With ``timeout``, raise :class:`~repro.errors.CaseTimeout` if it
        has not resolved within that many seconds (the case keeps
        running; only this wait gives up).
        """
        if self._outcome is None:
            assert self._future is not None
            try:
                self._outcome = self._future.result(timeout)
            except concurrent.futures.TimeoutError:
                raise errors.CaseTimeout(
                    f"case {self.key} still unresolved after "
                    f"{timeout}s wait"
                ) from None
        return self._outcome

    def result(self, timeout: float | None = None) -> CaseResult:
        """Block for the :class:`CaseResult`; raise on failure."""
        out = self.outcome(timeout)
        if out.result is None:
            raise errors.CaseExecutionError(
                self.key, out.attempts, out.error or out.state
            )
        return out.result

    async def wait(self, timeout: float | None = None) -> JobOutcome:
        """Awaitable twin of :meth:`outcome` for asyncio callers.

        Bridges the worker-pool future onto the running event loop
        (``asyncio.wrap_future``) so awaiting never hard-blocks the
        loop; the bridge is shielded so a timeout abandons only this
        wait — it cannot cancel a queued or running case out from under
        other waiters coalesced on the same handle.
        """
        if self._outcome is None:
            assert self._future is not None
            bridged = asyncio.wrap_future(self._future)
            # an abandoned bridge (timeout below) must not log
            # "exception was never retrieved" when the case later fails
            bridged.add_done_callback(
                lambda f: None if f.cancelled() else f.exception()
            )
            try:
                self._outcome = await asyncio.wait_for(
                    asyncio.shield(bridged), timeout
                )
            except (asyncio.TimeoutError, TimeoutError):
                raise errors.CaseTimeout(
                    f"case {self.key} still unresolved after "
                    f"{timeout}s wait"
                ) from None
        return self._outcome

    def __await__(self):
        return self.wait().__await__()


@dataclass
class FillReport:
    """Aggregated outcome of one :meth:`FillRuntime.run_tree` campaign."""

    outcomes: list
    events: list
    slots: int
    workers: int = 0  # threads that ran the slots (<= slots)
    cases: int = 0
    executed: int = 0
    cache_hits: int = 0
    retries: int = 0
    failures: int = 0
    cancelled: int = 0
    crashed: int = 0
    degraded: int = 0
    restored: int = 0
    meshes_built: int = 0
    max_concurrent: int = 0
    wall_seconds: float = 0.0

    @classmethod
    def tally(cls, handles: list, events: list, **fields) -> "FillReport":
        """The report of one campaign's resolved ``handles`` and the
        ``events`` it emitted; ``fields`` are the runtime's own counts."""
        outcomes = [h.outcome() for h in handles]
        # executions belonging to *this* campaign: hits resolve to
        # outcomes of earlier runs (or twins) and must not count again
        ran = {
            id(o): o for h, o in zip(handles, outcomes)
            if not h.hit and o.attempts > 0
        }
        return cls(
            outcomes=outcomes,
            events=events,
            cases=len(handles),
            executed=len(ran),
            cache_hits=sum(1 for h in handles if h.hit),
            retries=sum(1 for e in events if e.kind == "retry"),
            failures=sum(1 for o in outcomes if o.state == "failed"),
            cancelled=sum(1 for o in outcomes if o.state == "cancelled"),
            crashed=sum(1 for o in outcomes if o.state == "crashed"),
            degraded=sum(1 for o in outcomes if o.degraded),
            max_concurrent=_max_overlap(
                (o.start, o.end) for o in ran.values()
            ),
            **fields,
        )

    def ok(self) -> bool:
        return self.failures == 0 and self.cancelled == 0 and self.crashed == 0

    def summary(self) -> dict:
        """Counters in render order — rows of the fill summary table."""
        return {
            "cases": self.cases,
            "executed": self.executed,
            "cache hits": self.cache_hits,
            "retries": self.retries,
            "failures": self.failures,
            "cancelled": self.cancelled,
            "crashed": self.crashed,
            "degraded": self.degraded,
            "restored": self.restored,
            "meshes built": self.meshes_built,
            "slots": self.slots,
            "worker threads": self.workers,
            "max concurrent": self.max_concurrent,
            "wall seconds": round(self.wall_seconds, 3),
        }


def _max_overlap(intervals) -> int:
    """Concurrency high-water mark of (start, end) intervals."""
    events = []
    for start, end in intervals:
        events.append((start, 1))
        events.append((end, -1))
    live = peak = 0
    # ends sort before starts at equal timestamps: back-to-back reuse of a
    # slot is sequential, not concurrent
    for _, delta in sorted(events, key=lambda e: (e[0], e[1])):
        live += delta
        peak = max(peak, live)
    return peak
