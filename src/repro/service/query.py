"""The typed query surface: one aero-database point in, one answer out.

A :class:`PointQuery` is the service-side mirror of
:class:`~repro.solvers.interface.CaseSpec`: a configuration-space
instance plus one wind-space point, stamped with the *tenant* issuing
it (the service schedules solves fairly across tenants, never across
raw sockets).  :meth:`PointQuery.spec` canonicalizes into the same
content-keyed spec the fill runtime caches on, which is what makes the
service and batch campaigns share one cache.

A :class:`QueryResponse` always says how it was produced: ``source`` is
``"exact"`` (stored result), ``"surrogate"`` (interpolated from
neighbors, with ``error_estimate`` and the support size) or ``"solve"``
(a real case execution), plus whether this particular caller coalesced
onto an already-in-flight solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..solvers.interface import CaseResult, CaseSpec
from .surrogate import SurrogateConfig, interpolate

#: The blessed response sources, in increasing order of cost.
SOURCES = ("exact", "surrogate", "solve")


@dataclass(frozen=True)
class PointQuery:
    """One ``(config, Mach, alpha)`` lookup on behalf of a tenant.

    ``config`` accepts a dict (or item tuple) of configuration-space
    parameters and is canonicalized exactly like
    :attr:`CaseSpec.config`, so queries constructed in any order share
    identity.  ``beta`` is optional: ``None`` keeps it out of the wind
    point entirely (two-axis databases stay two-axis).
    """

    mach: float
    alpha: float
    config: tuple = ()
    beta: float | None = None
    tenant: str = "default"
    priority: int = 0

    def __post_init__(self) -> None:
        # reuse the spec canonicalization so (dict | items) inputs and
        # insertion order never change identity
        object.__setattr__(
            self, "config", CaseSpec(config=self.config).config
        )

    @property
    def wind(self) -> dict:
        point: dict = {"mach": self.mach, "alpha": self.alpha}
        if self.beta is not None:
            point["beta"] = self.beta
        return point

    def spec(self, solver: str = "cart3d",
             settings: Mapping | None = None) -> CaseSpec:
        """The content-keyed case spec this query resolves to."""
        return CaseSpec(
            config=self.config,
            wind=self.wind,
            solver=solver,
            settings=dict(settings) if settings else (),
        )


@dataclass(frozen=True)
class QueryResponse:
    """One answered query: coefficients plus full provenance."""

    key: str
    tenant: str
    source: str  # "exact" | "surrogate" | "solve"
    coefficients: dict
    error_estimate: float = 0.0
    neighbors: int = 0
    coalesced: bool = False
    converged: bool = True
    degraded: bool = False
    latency_seconds: float = 0.0
    wind: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        """JSON-able form (what the CLI prints per answered query)."""
        return {
            "key": self.key,
            "tenant": self.tenant,
            "source": self.source,
            "coefficients": dict(self.coefficients),
            "error_estimate": self.error_estimate,
            "neighbors": self.neighbors,
            "coalesced": self.coalesced,
            "converged": self.converged,
            "degraded": self.degraded,
            "latency_seconds": self.latency_seconds,
            "wind": dict(self.wind),
        }


def result_response(query: PointQuery, result: CaseResult,
                    source: str = "exact",
                    coalesced: bool = False) -> QueryResponse:
    """Wrap a stored (``"exact"``) or just-solved (``"solve"``) result as
    the zero-error answer to ``query``."""
    return QueryResponse(
        key=result.spec.key,
        tenant=query.tenant,
        source=source,
        coefficients=dict(result.coefficients),
        coalesced=coalesced,
        converged=result.converged,
        degraded=result.degraded,
        wind=query.wind,
    )


def surrogate_response(query: PointQuery, spec: CaseSpec, store,
                       config: SurrogateConfig) -> QueryResponse | None:
    """The surrogate tier's answer to ``query`` from ``store``'s filled
    neighbors of ``spec``, or None when ``config`` finds too few of them
    close enough or rates the interpolation worse than ``max_error``."""
    neighbors = store.nearest(spec, k=config.k)
    if not config.eligible(neighbors):
        return None
    support = config.within(neighbors)
    coefficients, error = interpolate(query.wind, support)
    if config.max_error is not None and error > config.max_error:
        return None
    return QueryResponse(
        key=spec.key,
        tenant=query.tenant,
        source="surrogate",
        coefficients=coefficients,
        error_estimate=error,
        neighbors=len(support),
        wind=query.wind,
    )
