"""The unified solver surface: one case in, one result out.

The paper runs the same submission pattern through two very different
solvers — Cart3D sweeps the database, NSU3D anchors it — and the job
control scripts of section IV only care that a *case* (a point in the
configuration x wind space) turns into forces, a convergence history and
hardware counters.  This module pins that contract down:

* :class:`CaseSpec` — an immutable, content-keyed description of one CFD
  case (config-space parameters, wind-space parameters, solver settings).
  Two specs with the same content share the same :attr:`CaseSpec.key`,
  which is what the fill runtime's cache/dedup layer keys on.
* :class:`CaseResult` — the solver-agnostic outcome: force/moment
  coefficients, residual history, convergence flag, counted FLOPs — the
  record the aero database (:class:`~repro.database.resultstore.ResultStore`)
  stores.
* :class:`SolverProtocol` — the structural type both
  :class:`~repro.solvers.cart3d.Cart3DSolver` and
  :class:`~repro.solvers.nsu3d.NSU3DSolver` satisfy:
  ``solve() -> history`` plus ``forces()``, ``residual_norm()``,
  ``history``, ``counters``, ``size`` and ``ndof``.
* :class:`ConvergenceHistory` — the shared residual/force trace.

The module deliberately imports nothing from ``repro.database`` at the
top level so the solver and database packages stay acyclic.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Protocol, runtime_checkable

import numpy as np


@dataclass
class ConvergenceHistory:
    """Residual and force traces over multigrid cycles (both solvers)."""

    residuals: list = field(default_factory=list)
    forces: list = field(default_factory=list)

    def orders_converged(self) -> float:
        if len(self.residuals) < 2 or self.residuals[0] <= 0:
            return 0.0
        floor = max(self.residuals[-1], 1e-300)
        return float(np.log10(self.residuals[0] / floor))

    def cycles_to(self, orders: float) -> int | None:
        """First cycle index at which the residual dropped ``orders``
        decades below its initial value (None if never)."""
        if not self.residuals:
            return None
        target = self.residuals[0] * 10.0 ** (-orders)
        for i, r in enumerate(self.residuals):
            if r <= target:
                return i
        return None


def _as_items(values) -> tuple:
    """Normalize a parameter mapping to sorted ``(name, value)`` pairs."""
    if isinstance(values, Mapping):
        items = values.items()
    else:
        items = tuple(values)
    return tuple(sorted((str(k), v) for k, v in items))


@dataclass(frozen=True)
class CaseSpec:
    """One CFD case: what the unified submission API accepts.

    ``config`` holds the configuration-space parameters (deflections —
    they select the geometry instance and hence the mesh), ``wind`` the
    wind-space parameters (Mach, alpha, beta), and ``settings`` any
    solver knobs that change the answer (mesh levels, cycle budget).
    All three accept dicts and are canonicalized to sorted tuples, so
    specs are hashable and insertion order never changes identity.
    """

    config: tuple = ()
    wind: tuple = ()
    solver: str = "cart3d"
    settings: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "config", _as_items(self.config))
        object.__setattr__(self, "wind", _as_items(self.wind))
        object.__setattr__(self, "settings", _as_items(self.settings))

    @property
    def config_params(self) -> dict:
        return dict(self.config)

    @property
    def wind_params(self) -> dict:
        return dict(self.wind)

    @property
    def params(self) -> dict:
        """Merged config + wind parameters — what the database's review
        verbs match on (solver settings are not part of it)."""
        merged = dict(self.config)
        merged.update(self.wind)
        return merged

    @property
    def key(self) -> str:
        """Content key: identical cases — however constructed — collide
        here, which is what makes re-submission a cache hit."""
        payload = json.dumps(
            [self.solver, self.config, self.wind, self.settings],
            default=str,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    @property
    def geometry_key(self) -> str:
        """Key of the geometry instance (config-space only): every case
        sharing it reuses one surface preparation + mesh, the paper's
        amortization."""
        payload = json.dumps([self.solver, self.config], default=str)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    @staticmethod
    def from_flow_job(job, solver: str = "cart3d", **settings) -> "CaseSpec":
        """Build a spec from a :class:`~repro.database.jobs.FlowJob`."""
        return CaseSpec(
            config=job.config_params,
            wind=job.wind_params,
            solver=solver,
            settings=settings,
        )


@dataclass(frozen=True)
class CaseResult:
    """Solver-agnostic outcome of one case: the database payload."""

    spec: CaseSpec
    coefficients: dict
    residual_history: tuple = ()
    converged: bool = True
    flops: float = 0.0
    degraded: bool = False  # produced by a fallback-fidelity re-run

    @property
    def cycles(self) -> int:
        return len(self.residual_history)

    def orders_converged(self) -> float:
        h = self.residual_history
        if len(h) < 2 or h[0] <= 0:
            return 0.0
        return float(np.log10(h[0] / max(h[-1], 1e-300)))

    def to_json(self) -> dict:
        """JSON-able form for the persistent result store."""
        return {
            "config": dict(self.spec.config),
            "wind": dict(self.spec.wind),
            "solver": self.spec.solver,
            "settings": dict(self.spec.settings),
            "coefficients": dict(self.coefficients),
            "residual_history": list(self.residual_history),
            "converged": self.converged,
            "flops": self.flops,
            "degraded": self.degraded,
        }

    @staticmethod
    def from_json(data: Mapping) -> "CaseResult":
        spec = CaseSpec(
            config=data["config"],
            wind=data["wind"],
            solver=data.get("solver", "cart3d"),
            settings=data.get("settings", ()),
        )
        return CaseResult(
            spec=spec,
            coefficients=dict(data["coefficients"]),
            residual_history=tuple(data.get("residual_history", ())),
            converged=bool(data.get("converged", True)),
            flops=float(data.get("flops", 0.0)),
            degraded=bool(data.get("degraded", False)),
        )


@runtime_checkable
class SolverProtocol(Protocol):
    """What both flow solvers expose: ``solve -> history/forces/counters``.

    ``size`` is the unified mesh-size accessor (flow cells for Cart3D,
    grid points for NSU3D).
    """

    history: Any
    counters: Any

    @property
    def size(self) -> int: ...

    @property
    def ndof(self) -> int: ...

    def solve(
        self, ncycles: int = ..., tol_orders: float = ..., cycle: str = ...
    ) -> ConvergenceHistory: ...

    def forces(self) -> dict: ...

    def residual_norm(self) -> float: ...


def case_result(solver: SolverProtocol, spec: CaseSpec,
                converged_orders: float = 2.0) -> CaseResult:
    """Package a solved solver's state as the unified :class:`CaseResult`."""
    hist = solver.history
    return CaseResult(
        spec=spec,
        # built-in floats: a journal round trip is then type-identical
        coefficients={k: float(v) for k, v in solver.forces().items()},
        residual_history=tuple(hist.residuals),
        converged=hist.orders_converged() >= converged_orders,
        flops=float(getattr(solver.counters, "total_flops", 0.0)),
    )
