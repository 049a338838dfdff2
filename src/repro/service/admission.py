"""Per-tenant fair-share admission control for the solve tier.

The solve tier is the expensive rung: every admitted query occupies a
runtime slot for a full case execution.  Left unmanaged, one chatty
tenant's burst would queue ahead of everyone else and an unbounded
queue would hide overload until memory ran out.  The controller fixes
both, in the spirit of the paper's shared-Columbia job scheduling
(hundreds of users, per-project fair share, bounded queues):

* **capacity** — at most ``capacity`` grants outstanding at once
  (sized to the fill runtime's slot count, so admitted solves never
  queue *inside* the worker pool).
* **fair share** — waiting queries are granted in
  ``(tenant inflight, -priority, arrival)`` order: the tenant with the
  fewest solves already running wins, higher-priority quota breaks
  ties, FIFO breaks the rest.  A burst from tenant A cannot starve
  tenant B's first query.
* **bounded queue + load shedding** — when ``max_queue`` waiters are
  already parked (or the tenant's own ``max_inflight`` is saturated
  with a full queue behind it), the query is refused *immediately*
  with the typed :class:`~repro.errors.ServiceOverloaded` instead of
  waiting unboundedly.  Clients see overload as a fast typed error,
  never as silent latency.

Purely asyncio (single event loop); the controller never touches
threads — the :class:`~repro.service.DatabaseService` bridges granted
solves onto the runtime's pool.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from ..errors import ConfigurationError, ServiceOverloaded


@dataclass(frozen=True)
class TenantQuota:
    """One tenant's admission envelope.

    ``max_inflight`` caps that tenant's simultaneously *granted*
    solves; ``priority`` (higher wins) breaks fair-share ties between
    tenants with equal inflight counts.
    """

    max_inflight: int = 2
    priority: int = 0

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )


#: The envelope of a tenant with no entry in ``quotas``.
_DEFAULT_QUOTA = TenantQuota()


class _Waiter:
    """One parked acquire: an asyncio future plus its sort identity."""

    __slots__ = ("tenant", "priority", "seq", "future")

    def __init__(self, tenant: str, priority: int, seq: int,
                 future: "asyncio.Future[None]"):
        self.tenant = tenant
        self.priority = priority
        self.seq = seq
        self.future = future


class AdmissionController:
    """Bounded, tenant-fair gate in front of the solve tier.

    Use as an async context per solve::

        await admission.acquire(tenant)
        try:
            ... run the solve ...
        finally:
            admission.release(tenant)

    ``acquire`` either returns (a grant), parks on the bounded queue,
    or raises :class:`~repro.errors.ServiceOverloaded` without waiting.
    """

    def __init__(
        self,
        capacity: int,
        *,
        max_queue: int = 32,
        quotas: dict[str, TenantQuota] | None = None,
    ):
        if capacity < 1:
            raise ConfigurationError(
                f"capacity must be >= 1, got {capacity}"
            )
        if max_queue < 0:
            raise ConfigurationError(
                f"max_queue must be >= 0, got {max_queue}"
            )
        self.capacity = capacity
        self.max_queue = max_queue
        self._quotas = dict(quotas) if quotas else {}
        self._inflight: dict[str, int] = {}
        self._waiting: list[_Waiter] = []
        self._seq = 0
        self.granted = 0
        self.shed = 0

    def quota(self, tenant: str) -> TenantQuota:
        return self._quotas.get(tenant, _DEFAULT_QUOTA)

    def inflight(self, tenant: str) -> int:
        return self._inflight.get(tenant, 0)

    @property
    def busy(self) -> int:
        """Grants currently outstanding across all tenants."""
        return sum(self._inflight.values())

    @property
    def queued(self) -> int:
        return len(self._waiting)

    def _admissible(self, tenant: str) -> bool:
        return (
            self.busy < self.capacity
            and self.inflight(tenant) < self.quota(tenant).max_inflight
        )

    def _grant(self, tenant: str) -> None:
        self._inflight[tenant] = self.inflight(tenant) + 1
        self.granted += 1

    async def acquire(self, tenant: str) -> None:
        """Admit one solve for ``tenant``; park or shed when saturated.

        Sheds (raises :class:`~repro.errors.ServiceOverloaded`) when the
        waiting queue is full — overload surfaces immediately, with the
        queue depth attached, rather than as unbounded latency.
        """
        # fast path only when nobody is already waiting: a grant must
        # never overtake the queue or fairness is gone
        if not self._waiting and self._admissible(tenant):
            self._grant(tenant)
            return
        if len(self._waiting) >= self.max_queue:
            self.shed += 1
            raise ServiceOverloaded(
                tenant,
                f"solve queue full ({self.max_queue} waiting, "
                f"{self.busy}/{self.capacity} slots busy)",
                queued=len(self._waiting),
            )
        future: asyncio.Future[None] = (
            asyncio.get_running_loop().create_future()
        )
        waiter = _Waiter(
            tenant, self.quota(tenant).priority, self._seq, future
        )
        self._seq += 1
        self._waiting.append(waiter)
        # capacity may exist right now (tenant-quota holdback elsewhere)
        self._pump()
        try:
            await future
        except asyncio.CancelledError:
            if waiter in self._waiting:
                self._waiting.remove(waiter)
            elif future.done() and not future.cancelled():
                # granted and cancelled in the same tick: hand the
                # grant back so the slot is not leaked
                self.release(tenant)
            raise

    def release(self, tenant: str) -> None:
        """Return one grant and wake the fairest waiter."""
        count = self.inflight(tenant)
        if count <= 0:
            raise ConfigurationError(
                f"release without a matching grant for tenant {tenant!r}"
            )
        if count == 1:
            del self._inflight[tenant]
        else:
            self._inflight[tenant] = count - 1
        self._pump()

    def _pump(self) -> None:
        """Grant as many parked waiters as capacity and quotas allow,
        fairest first: fewest tenant inflight, then priority, then
        arrival order."""
        while self._waiting and self.busy < self.capacity:
            eligible = [
                w for w in self._waiting if self._admissible(w.tenant)
            ]
            if not eligible:
                return
            winner = min(
                eligible,
                key=lambda w: (
                    self.inflight(w.tenant), -w.priority, w.seq
                ),
            )
            self._waiting.remove(winner)
            if winner.future.cancelled():
                continue
            self._grant(winner.tenant)
            winner.future.set_result(None)

    def snapshot(self) -> dict:
        """Render-ready controller state (the ``status`` CLI shows it)."""
        return {
            "capacity": self.capacity,
            "busy": self.busy,
            "queued": self.queued,
            "granted": self.granted,
            "shed": self.shed,
            "inflight": dict(sorted(self._inflight.items())),
        }
