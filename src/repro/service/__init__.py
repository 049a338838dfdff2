"""The aero-database query service (the ROADMAP's serving layer).

The paper's configuration-space x wind-space machinery exists to
*answer queries*: downstream consumers (trim solvers, flight-envelope
sweeps, simulators) look up ``(config, Mach, alpha)`` points.  Our
reproduction had only the batch side — :class:`~repro.database.runtime.
FillRuntime` campaigns — so this package adds the long-running front
end over the same case-submission API:

* :class:`DatabaseService` — the asyncio query front end: single-flight
  coalescing on content keys, exact answers from the
  :class:`~repro.database.resultstore.ResultStore`, surrogate
  interpolation from neighboring filled cases, and real solves for true
  misses under per-tenant fair-share admission control.
* :class:`PointQuery` / :class:`QueryResponse` — the typed query
  surface; every response carries ``source: exact|surrogate|solve`` and
  an interpolation error estimate.
* :class:`SurrogateConfig` / :func:`interpolate` — the mid-fidelity
  tier: linear interpolation over the wind-space axes with a
  leave-one-out error estimate.
* :class:`AdmissionController` / :class:`TenantQuota` — bounded-queue
  fair-share scheduling of the solve tier; saturation sheds load with
  the typed :class:`~repro.errors.ServiceOverloaded`.

Accepted solve-tier queries are journaled through the PR-4 checkpoint
layer (the runtime's :class:`~repro.database.checkpoint.
CampaignCheckpoint`), so a killed service restarts with
:meth:`DatabaseService.recover` — completed solves restore into the
store, interrupted ones re-queue, nothing recomputes.

CLI: ``python -m repro.service {serve,status,query}``.

House rule R012 (tier-1 lint): no blocking calls — ``time.sleep``,
direct solver construction, synchronous ``FillRuntime.run_case`` —
inside this package's coroutine bodies; the event loop must stay free
to answer cache and surrogate tiers while solves run on the pool.
"""

from .admission import AdmissionController, TenantQuota
from .frontend import DatabaseService, ServiceCounters
from .query import PointQuery, QueryResponse
from .surrogate import SurrogateConfig, interpolate

__all__ = [
    "AdmissionController",
    "DatabaseService",
    "PointQuery",
    "QueryResponse",
    "ServiceCounters",
    "SurrogateConfig",
    "TenantQuota",
    "interpolate",
]
