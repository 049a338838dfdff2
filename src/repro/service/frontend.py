"""The asyncio query front end over the fill runtime.

:class:`DatabaseService` is the long-running process the ROADMAP's
serving item asks for: downstream consumers issue
:class:`~repro.service.query.PointQuery` lookups and the service
answers each from the cheapest sufficient tier —

1. **exact** — the content-keyed :class:`~repro.database.resultstore.
   ResultStore` already holds the case (microseconds);
2. **coalesce** — an identical query is already solving; this caller
   parks on the same in-flight future (single-flight: N identical
   concurrent queries cost one solve);
3. **surrogate** — enough filled neighbors surround the point in wind
   space; interpolate with an explicit error estimate
   (:mod:`repro.service.surrogate`);
4. **solve** — a true miss runs a real case on the
   :class:`~repro.database.runtime.FillRuntime` worker pool, gated by
   per-tenant fair-share admission control
   (:mod:`repro.service.admission`).

The event loop only ever touches tiers 1–3 and bookkeeping; solves run
on the runtime's thread pool and are awaited through the
:class:`~repro.database.handles.CaseHandle` asyncio bridge, so a cache
hit is never stuck behind an unrelated tenant's solve (house lint rule
R012 enforces the no-blocking-calls invariant mechanically).

Accepted solve-tier queries are journaled as ``"query"`` events through
the runtime's checkpoint before submission; :meth:`DatabaseService.
recover` replays a journal after a kill — completed solves restore into
the store, interrupted ones resubmit, nothing recomputes.
"""

from __future__ import annotations

import asyncio
from dataclasses import asdict, dataclass, replace
from typing import Mapping

from .. import errors
from ..database.checkpoint import CampaignCheckpoint, query_info
from ..database.runtime import FillRuntime
from ..solvers.interface import CaseResult, CaseSpec
from ..telemetry.spans import EpochClock, get_tracer
from ..telemetry.stats import LatencyHistogram
from .admission import AdmissionController, TenantQuota
from .query import PointQuery, QueryResponse, result_response
from .surrogate import SurrogateConfig, interpolate


@dataclass
class ServiceCounters:
    """Hot-path counters; ``queries == exact + surrogate + coalesced +
    solved + shed + failed`` once the service drains."""

    queries: int = 0
    exact: int = 0
    surrogate: int = 0
    coalesced: int = 0
    solved: int = 0
    shed: int = 0
    failed: int = 0

    @property
    def hits(self) -> int:
        """Queries answered without occupying a solve slot."""
        return self.exact + self.surrogate

    @property
    def hit_rate(self) -> float:
        """Exact + surrogate fraction of all queries (the bench's
        headline number; coalesced joiners are reported separately)."""
        return self.hits / self.queries if self.queries else 0.0

    def to_json(self) -> dict:
        record: dict = asdict(self)
        record["hit_rate"] = round(self.hit_rate, 6)
        return record


class DatabaseService:
    """Single-flight, multi-tenant query front end over one runtime.

    Parameters
    ----------
    runtime:
        The :class:`~repro.database.runtime.FillRuntime` executing the
        solve tier.  Its store answers the exact tier and feeds the
        surrogate tier; its checkpoint (when attached) journals
        accepted queries for :meth:`recover`.
    solver, settings:
        Spec identity of the cases this service answers; default to the
        runner's ``solver_name`` / ``settings()`` so service queries
        and batch campaigns share content keys (and thus one cache).
    surrogate:
        :class:`~repro.service.surrogate.SurrogateConfig` of the
        interpolation tier.  ``max_distance=0.0`` disables it (no
        neighbor is ever close enough).
    quotas, max_queue, default_quota:
        Admission-control shape; capacity is always the runtime's slot
        count, so admitted solves never queue inside the worker pool.
    solve_timeout:
        Optional per-query ceiling (seconds) on waiting for the solve
        tier; expiry raises :class:`~repro.errors.CaseTimeout` (the
        case keeps running and a later identical query hits the cache).
    """

    def __init__(
        self,
        runtime: FillRuntime,
        *,
        solver: str | None = None,
        settings: Mapping | None = None,
        surrogate: SurrogateConfig | None = None,
        quotas: dict[str, TenantQuota] | None = None,
        max_queue: int = 32,
        default_quota: TenantQuota = TenantQuota(),
        solve_timeout: float | None = None,
        tracer=None,
    ):
        self.runtime = runtime
        self.solver = (
            solver
            if solver is not None
            else getattr(runtime.runner, "solver_name", "cart3d")
        )
        if settings is None:
            settings_fn = getattr(runtime.runner, "settings", None)
            settings = settings_fn() if settings_fn is not None else {}
        self.settings: dict = dict(settings)
        self.surrogate = (
            surrogate if surrogate is not None else SurrogateConfig()
        )
        self.admission = AdmissionController(
            runtime.slots,
            max_queue=max_queue,
            quotas=quotas,
            default_quota=default_quota,
        )
        self.solve_timeout = solve_timeout
        self.tracer = tracer if tracer is not None else get_tracer()
        self.counters = ServiceCounters()
        self.latency = LatencyHistogram()
        self._clock = EpochClock()
        self._inflight: dict[str, asyncio.Future[CaseResult]] = {}

    # -- the query path ------------------------------------------------------

    def spec_for(self, query: PointQuery) -> CaseSpec:
        """The content-keyed spec a query resolves to on this service."""
        return query.spec(self.solver, self.settings)

    async def query(self, query: PointQuery) -> QueryResponse:
        """Answer one point query from the cheapest sufficient tier.

        Raises :class:`~repro.errors.ServiceOverloaded` when the query
        reached the solve tier and was shed (including callers coalesced
        onto a solve that was then shed), and
        :class:`~repro.errors.CaseExecutionError` /
        :class:`~repro.errors.CaseTimeout` when the solve itself failed
        or outlived ``solve_timeout``.
        """
        t0 = self._clock()
        self.counters.queries += 1
        spec = self.spec_for(query)
        with self.tracer.span(
            "service.query", cat="service",
            key=spec.key, tenant=query.tenant,
        ):
            try:
                response = await self._answer(query, spec)
            except errors.ServiceOverloaded:
                raise
            except Exception:
                self.counters.failed += 1
                raise
            finally:
                self.latency.record(self._clock() - t0)
        return replace(response, latency_seconds=self._clock() - t0)

    async def _answer(self, query: PointQuery,
                      spec: CaseSpec) -> QueryResponse:
        # tier 1: exact
        cached = self.runtime.store.get(spec.key)
        if cached is not None:
            self.counters.exact += 1
            return result_response(query, cached)
        # tier 2: coalesce onto an identical in-flight solve (the
        # leader registered before awaiting admission, so joiners can
        # never race it into a second solve)
        inflight = self._inflight.get(spec.key)
        if inflight is not None:
            self.counters.coalesced += 1
            result = await asyncio.shield(inflight)
            return result_response(query, result, "solve", coalesced=True)
        # tier 3: surrogate interpolation from filled neighbors
        neighbors = self.runtime.store.nearest(spec, k=self.surrogate.k)
        if self.surrogate.eligible(neighbors):
            support = self.surrogate.within(neighbors)
            coefficients, error = interpolate(query.wind, support)
            if (
                self.surrogate.max_error is None
                or error <= self.surrogate.max_error
            ):
                self.counters.surrogate += 1
                return QueryResponse(
                    key=spec.key,
                    tenant=query.tenant,
                    source="surrogate",
                    coefficients=coefficients,
                    error_estimate=error,
                    neighbors=len(support),
                    wind=query.wind,
                )
        # tier 4: a real solve
        return await self._solve(query, spec)

    async def _solve(self, query: PointQuery,
                     spec: CaseSpec) -> QueryResponse:
        future: asyncio.Future[CaseResult] = (
            asyncio.get_running_loop().create_future()
        )
        # mark any landing exception retrieved: with zero joiners nobody
        # else awaits this future and asyncio would log otherwise
        future.add_done_callback(
            lambda f: None if f.cancelled() else f.exception()
        )
        self._inflight[spec.key] = future
        try:
            try:
                await self.admission.acquire(query.tenant)
            except errors.ServiceOverloaded as exc:
                self.counters.shed += 1
                future.set_exception(exc)  # joiners shed with the leader
                raise
            try:
                # journal intent *before* submission: a kill between the
                # two leaves a "query" event with no terminal event, so
                # recover() resubmits it (checkpoint attached) — and the
                # event carries the full spec, so the journal alone can
                # rebuild it
                self.runtime.events.emit(
                    "query", spec.key, tenant=query.tenant,
                    **query_info(spec),
                )
                handle = self.runtime.submit(spec)
                outcome = await handle.wait(self.solve_timeout)
                if outcome.result is None:
                    raise errors.CaseExecutionError(
                        spec.key, outcome.attempts,
                        outcome.error or outcome.state,
                    )
                future.set_result(outcome.result)
            except BaseException as exc:
                if not future.done():
                    future.set_exception(exc)
                raise
            finally:
                self.admission.release(query.tenant)
        finally:
            self._inflight.pop(spec.key, None)
        self.counters.solved += 1
        return result_response(query, future.result(), "solve")

    # -- restartability ------------------------------------------------------

    def recover(self) -> dict:
        """Replay the runtime's checkpoint journal after a kill.

        Completed cases restore straight into the store (their next
        query is an exact hit); journaled ``"query"`` events with no
        surviving result resubmit to the runtime — fire-and-forget, so
        the backlog solves while the service answers new queries.
        Returns ``{"restored": n, "resubmitted": [keys...]}``; nothing
        ever recomputes.
        """
        checkpoint = self.runtime.checkpoint
        if checkpoint is None:
            raise errors.ConfigurationError(
                "recover needs a checkpoint journal attached to the "
                "runtime (FillRuntime(checkpoint=...))"
            )
        state = CampaignCheckpoint.load(checkpoint.path)
        with self.tracer.span(
            "service.recover", cat="service", path=str(state.path),
        ):
            restored = state.restore(self.runtime.store)
            resubmitted = []
            for key, spec in sorted(state.queries().items()):
                if self.runtime.store.get(key) is not None:
                    continue
                self.runtime.submit(spec)
                resubmitted.append(key)
        self.runtime.events.emit(
            "resume",
            path=str(state.path), restored=restored,
            completed=len(state.completed), interrupted=len(resubmitted),
        )
        return {"restored": restored, "resubmitted": resubmitted}

    # -- introspection -------------------------------------------------------

    def status(self) -> dict:
        """Render-ready service state (the ``status`` CLI prints it)."""
        store = self.runtime.store
        return {
            "solver": self.solver,
            "settings": dict(self.settings),
            "store": {
                "path": str(store.path) if store.path else None,
                "results": len(store),
            },
            "slots": self.runtime.slots,
            "inflight": len(self._inflight),
            "counters": self.counters.to_json(),
            "admission": self.admission.snapshot(),
            "latency": self.latency.summary(),
        }
