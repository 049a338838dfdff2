"""The default fill runner and its journal description.

:class:`Cart3DCaseRunner` runs real Cart3D cases.  Its ``describe()`` is
what a campaign manifest journals about the runner, and
:func:`rebuild_runner` is that description's one reader (the
``python -m repro.database resume`` CLI).  Only ``type: cart3d`` with a
named geometry (``wing_body``, ``shuttle_stack``) is reconstructible;
campaigns driven by ad-hoc callables resume in-process via
:meth:`~repro.database.runtime.FillRuntime.resume`.
"""

from __future__ import annotations

from .. import errors
from ..runtime import RuntimeConfig
from ..solvers.interface import CaseResult, CaseSpec, case_result

#: Settings :meth:`Cart3DCaseRunner.settings` always journals.
_SETTINGS = ("dim", "base_level", "max_level", "mg_levels", "cycles")
#: The decomposition, journaled only when a case used one.
_EXECUTION = ("backend", "nranks", "overlap")


class Cart3DCaseRunner:
    """The default runner: real Cart3D solves through the facade.

    ``prepare`` owns what does not depend on the wind — deflected solid,
    mesh, multigrid hierarchy — built once per instance, shared read-only;
    ``__call__`` pays freestream, state and cycles through
    :func:`repro.api.make_cart3d_solver`.  ``max_inflight``
    is the cases worth running at once: 1 while they are stepped in this
    interpreter, uncapped on ``backend="process"`` (the slot thread only
    waits on pipes).  :class:`~repro.database.runtime.FillRuntime` sizes
    its pool from it, so there
    is no lock here and a queued case has not started.

    A ``config=RuntimeConfig(...)`` with more than one rank runs each
    case through the unified distributed runtime instead
    (:func:`repro.api.make_parallel_cart3d` driven by the config, so
    ``backend="process"`` cases execute on real worker processes).
    """

    solver_name = "cart3d"

    def __init__(
        self,
        geometry,
        *,
        dim: int = 2,
        base_level: int = 4,
        max_level: int = 5,
        mg_levels: int = 3,
        cycles: int = 25,
        tol_orders: float = 4.0,
        converged_orders: float = 2.0,
        geometry_name: str | None = None,
        chaos=None,
        config=None,
    ):
        self.geometry = geometry
        self.dim = dim
        self.base_level = base_level
        self.max_level = max_level
        self.mg_levels = mg_levels
        self.cycles = cycles
        self.tol_orders = tol_orders
        self.converged_orders = converged_orders
        self.geometry_name = geometry_name
        self.chaos = chaos
        self.config = config or RuntimeConfig()
        if self.config.backend != "sim" and self.config.nranks is None:
            raise errors.ConfigurationError(
                "Cart3DCaseRunner sizes the decomposition from the "
                "config; give RuntimeConfig an explicit nranks for "
                f"backend={self.config.backend!r}"
            )
        # historical attributes (cache keys, manifests, callers)
        self.nranks = self.config.nranks if self.config.nranks else 1
        self.overlap = self.config.overlap
        self.backend = self.config.backend
        self.max_inflight = None if self.backend == "process" else 1
        self._deflectable = {c.name for c in geometry.components}

    def describe(self) -> dict:
        """Manifest entry: how to rebuild this runner in a fresh process
        (:func:`rebuild_runner` reads it back)."""
        return {
            "type": "cart3d",
            "geometry": self.geometry_name,
            "tol_orders": self.tol_orders,
            "converged_orders": self.converged_orders,
            **self.settings(),
        }

    def settings(self) -> dict:
        """Solver knobs that belong in the cache key."""
        settings = {k: getattr(self, k) for k in _SETTINGS}
        # serial runners keep their historical cache keys; the
        # decomposition only enters the key when it is actually used
        if self.nranks != 1:
            settings["nranks"] = self.nranks
            settings["overlap"] = self.overlap
        if self.backend != "sim":
            settings["backend"] = self.backend
        return settings

    def configure(self, config_params: dict):
        """The deflected geometry instance for one config-space point."""
        deflections = {
            k: v for k, v in config_params.items() if k in self._deflectable
        }
        return self.geometry.with_deflections(**deflections)

    def prepare(self, geo_job):
        """``(solid, mesh, (levels, transfers))`` of one instance."""
        from ..mesh.cartesian import adapt_to_geometry
        from ..solvers.cart3d.levels import build_levels, freeze

        solid = self.configure(geo_job.config_params)
        mesh, _ = adapt_to_geometry(
            solid, dim=self.dim, base_level=self.base_level,
            max_level=self.max_level,
        )
        hierarchy = build_levels(solid, mesh=mesh, mg_levels=self.mg_levels)
        freeze(hierarchy)
        return solid, mesh, hierarchy

    def __call__(self, spec: CaseSpec, shared=None) -> CaseResult:
        from .. import api

        if self.chaos is not None and self.chaos.solver_fault(spec.key):
            # sticky per-key divergence (independent of attempt): the
            # retry budget exhausts and the degradation ladder engages
            raise errors.SolverDivergence(
                f"chaos: solver diverged on case {spec.key}"
            )
        solid, mesh, hierarchy = shared if shared is not None else (
            self.configure(spec.config_params), None, None
        )
        wind = spec.wind_params
        solver = api.make_cart3d_solver(
            solid,
            mesh=mesh,
            dim=self.dim,
            base_level=self.base_level,
            max_level=self.max_level,
            mg_levels=self.mg_levels,
            mach=wind.get("mach", 0.5),
            alpha_deg=wind.get("alpha", 0.0),
            beta_deg=wind.get("beta", 0.0),
            hierarchy=hierarchy,
        )
        if self.nranks == 1 and self.backend == "sim":
            solver.solve(ncycles=self.cycles, tol_orders=self.tol_orders)
        else:
            par = api.make_parallel_cart3d(
                solver, self.nranks, config=self.config
            )
            try:
                q_global, residuals = par.solve(
                    self.cycles, cfl=solver.cfl
                )
            finally:
                par.close()
            solver.q = q_global
            solver.history.residuals.extend(residuals)
            # forces come from the final state; per-cycle force traces
            # are a serial-path feature
            solver.history.forces.append(solver.forces())
        return case_result(solver, spec, self.converged_orders)


def _geometry_factories() -> dict:
    from ..mesh.cartesian import shuttle_stack, wing_body

    return {"wing_body": wing_body, "shuttle_stack": shuttle_stack}


def rebuild_runner(described: dict | None) -> Cart3DCaseRunner:
    """The runner a :meth:`Cart3DCaseRunner.describe` entry describes.

    A resumed case must run (and key) exactly as the interrupted one
    did, so the decomposition comes back too when it was journaled.
    """
    if not described or described.get("type") != "cart3d":
        raise errors.ConfigurationError(
            "journal manifest does not describe a reconstructible runner; "
            "resume this campaign in-process with FillRuntime.resume()"
        )
    geometry_name = described.get("geometry")
    factories = _geometry_factories()
    factory = factories.get(geometry_name)
    if factory is None:
        raise errors.ConfigurationError(
            f"unknown manifest geometry {geometry_name!r}; known: "
            f"{sorted(factories)}"
        )
    return Cart3DCaseRunner(
        factory(),
        geometry_name=geometry_name,
        tol_orders=described.get("tol_orders", 4.0),
        converged_orders=described.get("converged_orders", 2.0),
        config=RuntimeConfig(
            **{k: described[k] for k in _EXECUTION if k in described}
        ),
        **{k: described[k] for k in _SETTINGS if k in described},
    )
