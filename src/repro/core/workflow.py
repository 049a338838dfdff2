"""The variable-fidelity analysis workflow (paper sections I and IV).

"Our approach to this seemingly intractable problem relies on the use of
a variable fidelity model, where a high fidelity model which solves the
Reynolds-averaged Navier-Stokes equations (NSU3D) is used to perform the
analysis at the most important flight conditions ... and a lower
fidelity model based on inviscid flow analysis on adapted Cartesian
meshes (Cart3D) is used to validate the new design over a broad range of
flight conditions, using an automated parameter sweep database
generation approach."

:class:`VariableFidelityStudy` wires that pipeline end-to-end at
demonstration scale: Cart3D fills the aero database over the
configuration/wind space; NSU3D anchors selected design points with the
high-fidelity model; anchor corrections calibrate the inviscid database
("large numbers of inviscid solutions can often be corrected using the
results of a relatively few full Navier-Stokes simulations").

Both :meth:`VariableFidelityStudy.fill` and the virtual re-run
:meth:`VariableFidelityStudy.run_case` route through one
:class:`~repro.database.runtime.FillRuntime`: cases execute on a bounded
worker pool sized from the machine model, geometry instances are meshed
once and shared (the paper's amortization), and identical re-submissions
are content-keyed cache hits.  The runtime's
:class:`~repro.database.resultstore.ResultStore` is the study's
database; ``fill`` keeps its report on :attr:`last_report`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..database import ResultStore, StudyDefinition, build_job_tree
from ..database.handles import FillReport
from ..database.runner import Cart3DCaseRunner
from ..database.runtime import FillRuntime
from ..mesh.cartesian.geometry import Assembly
from ..solvers.interface import CaseResult, CaseSpec


@dataclass
class VariableFidelityStudy:
    """End-to-end low-fidelity sweep + high-fidelity anchoring.

    Parameters
    ----------
    geometry:
        Deflectable :class:`Assembly` (e.g. ``wing_body()``).
    study:
        The config x wind parameter study to fill.
    base_level, max_level, mg_levels, cycles:
        Cart3D meshing/solver settings per case (kept small — this runs
        real solves).
    nnodes, cpus_per_case:
        Fill concurrency: the runtime packs ``(512 // cpus_per_case) *
        nnodes`` simultaneous cases, the paper's node-slot arithmetic.
    store:
        Optional :class:`~repro.database.ResultStore` the study's
        runtime caches into; pass a path-backed one to make the fill
        durable across processes.  Without one the study is an
        in-session sweep (the runtime's documented ``durable=False``).
    """

    geometry: Assembly
    study: StudyDefinition
    dim: int = 2
    base_level: int = 4
    max_level: int = 5
    mg_levels: int = 3
    cycles: int = 25
    nnodes: int = 1
    cpus_per_case: int = 32
    store: object | None = None
    meshes_built: int = 0
    cases_run: int = 0
    last_report: FillReport | None = field(default=None, repr=False)
    _runtime: FillRuntime | None = field(default=None, repr=False, compare=False)
    _runner: Cart3DCaseRunner | None = field(
        default=None, repr=False, compare=False
    )

    # -- the unified submission path ---------------------------------------------

    def runner(self) -> Cart3DCaseRunner:
        """The facade-built Cart3D case runner this study submits through."""
        if self._runner is None:
            self._runner = Cart3DCaseRunner(
                self.geometry,
                dim=self.dim,
                base_level=self.base_level,
                max_level=self.max_level,
                mg_levels=self.mg_levels,
                cycles=self.cycles,
            )
        return self._runner

    def runtime(self) -> FillRuntime:
        """The executing fill runtime (created lazily, reused across
        ``fill``/``run_case`` calls so they share one result cache)."""
        if self._runtime is None:
            self._runtime = FillRuntime(
                self.runner(),
                nnodes=self.nnodes,
                cpus_per_case=self.cpus_per_case,
                store=self.store,
                # an in-session sweep unless the caller supplied a store
                durable=False if self.store is None else None,
            )
        return self._runtime

    def case_spec(self, wind: dict, config: dict) -> CaseSpec:
        """The content-keyed spec for one case of this study."""
        return CaseSpec(
            config=config, wind=wind, solver="cart3d",
            settings=self.runner().settings(),
        )

    def run_case(self, wind: dict, config: dict) -> CaseResult:
        """One Cart3D solve through the runtime — the paper's virtual
        re-run of a case the database lacks.  Re-running an identical
        case is a cache hit."""
        handle = self.runtime().submit(self.case_spec(wind, config))
        result = handle.result()
        if not handle.hit:
            self.cases_run += 1
        return result

    def fill(self, max_cases: int | None = None) -> ResultStore:
        """Hierarchical database fill through the executing runtime:
        mesh each configuration once, sweep the wind space on it (the
        paper's amortization), cases packed onto node slots concurrently.
        Returns the runtime's store — the study's database.
        """
        tree = _truncate_tree(build_job_tree(self.study), max_cases)
        report = self.runtime().run_tree(tree)
        self.last_report = report
        self.meshes_built += report.meshes_built
        self.cases_run += report.executed
        return self.runtime().store

    def _stored(self, params: dict) -> CaseResult:
        """The stored result at merged config + wind ``params`` (split by
        the study's config-axis names); KeyError if it is not stored."""
        config_names = set(self.study.config_space.names)
        config = {k: v for k, v in params.items() if k in config_names}
        wind = {k: v for k, v in params.items() if k not in config_names}
        result = self.runtime().store.get(self.case_spec(wind, config).key)
        if result is None:
            raise KeyError(f"case {params} not in the database")
        return result

    # -- high-fidelity anchoring -------------------------------------------------

    def anchor_with_nsu3d(
        self, anchor_params: dict, nsu3d_forces: dict
    ) -> dict:
        """Correct the inviscid database with one high-fidelity result.

        Returns the additive corrections {coefficient: delta} implied by
        the NSU3D anchor at ``anchor_params`` — the paper's 'corrected
        using the results of a relatively few full Navier-Stokes
        simulations'.
        """
        low = self._stored(anchor_params)
        return {
            name: nsu3d_forces[name] - low.coefficients.get(name, 0.0)
            for name in nsu3d_forces
            if name in low.coefficients
        }

    def corrected_coefficient(
        self, params: dict, name: str, corrections: dict
    ) -> float:
        """Database lookup with the anchor correction applied."""
        rec = self._stored(params)
        return rec.coefficients[name] + corrections.get(name, 0.0)


def _truncate_tree(tree: list, max_cases: int | None) -> list:
    """First ``max_cases`` flow jobs of the hierarchy, dropping geometry
    instances left with no cases (their mesh would never be used)."""
    if max_cases is None:
        return tree
    out = []
    remaining = max_cases
    for geo in tree:
        if remaining <= 0:
            break
        take = geo.flow_jobs[:remaining]
        remaining -= len(take)
        if take:
            clone = type(geo)(config_params=geo.config_params, flow_jobs=take)
            out.append(clone)
    return out
