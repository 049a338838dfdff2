"""The blessed entry point: one curated facade over the whole package.

Everything a user of the reproduction needs — geometry builders, the two
solvers behind the unified :class:`~repro.solvers.interface.SolverProtocol`
surface, the parameter-study machinery, the executing fill runtime and
the variable-fidelity workflow — re-exported from one module::

    from repro.api import (
        Cart3DSolver, FillRuntime, Cart3DCaseRunner,
        StudyDefinition, ParameterSpace, Axis,
        build_job_tree, schedule_fill, wing_body,
    )

The facade also owns the *factory* functions
(:func:`make_cart3d_solver` / :func:`make_nsu3d_solver`), thin
keyword-only wrappers over the solver constructors.

Every decision has one spelling here:

=================================  =====================================
decision                           spelling
=================================  =====================================
build a serial solver              ``make_cart3d_solver(...)`` /
                                   ``make_nsu3d_solver(...)``
decompose it                       ``make_parallel_cart3d(solver, n)`` /
                                   ``make_parallel_nsu3d(solver, n)``
                                   (returns the
                                   :class:`DistributedSolveDriver`)
how the decomposed solve executes  ``config=RuntimeConfig(backend=...,
                                   nranks=..., overlap=..., ...)``
mesh size of a solver              ``solver.size``
fill a database                    ``FillRuntime`` / ``study.fill(...)``
=================================  =====================================

The facade's contract is explicit: ``__api_version__`` states which
surface you are coding against and ``__all__`` is complete (a self-test
asserts every public module attribute is exported and vice versa).
There is no deprecation layer: a spelling is either the one above or
a ``TypeError``.  Constructing a :class:`FillRuntime` without a
:class:`ResultStore` warns ``RuntimeWarning`` unless ``durable=False``
acknowledges the ephemeral campaign.
"""

from __future__ import annotations

from .core.design import DesignHistory, DesignOptimizer, trim_objective
from .core.flightenv import AeroInterpolant, FlightState, fly_through
from .core.workflow import VariableFidelityStudy
from .database import (
    Axis,
    CampaignCheckpoint,
    Cart3DCaseRunner,
    CaseHandle,
    ChaosPolicy,
    CheckpointState,
    FillEvent,
    FillReport,
    FillRuntime,
    FlowJob,
    GeometryJob,
    JobOutcome,
    ParameterSpace,
    ResultStore,
    StudyDefinition,
    build_job_tree,
    meshing_amortization,
    standard_study,
)
from .errors import (
    CampaignAborted,
    CaseExecutionError,
    CaseTimeout,
    CheckpointCorrupt,
    ConfigurationError,
    ExchangeLifecycleError,
    GhostRaceError,
    ReproError,
    RuntimeClosed,
    ServiceOverloaded,
    SolverDivergence,
    WorkerCrash,
)
from .machine import CPUS_PER_NODE, Columbia, node_slots, vortex_subcluster
from .mesh.cartesian import (
    CartesianMesh,
    Sphere,
    adapt_to_geometry,
    shuttle_stack,
    wing_body,
)
from .mesh.unstructured import HybridMesh, bump_channel, wing_mesh
from .comm import SimMPI
from .perf import (
    SchedulePlan,
    fill_summary_table,
    format_comparison,
    format_series_table,
    schedule_fill,
)
from .runtime import (
    BACKENDS,
    DistributedDomain,
    DistributedSolveDriver,
    DomainHierarchy,
    DomainSet,
    GhostSanitizer,
    HybridExchanger,
    LevelSpec,
    MetisLinePartitioner,
    Partitioner,
    ProcessExchanger,
    ProcessPool,
    RuntimeConfig,
    SFCPartitioner,
    build_domain_hierarchy,
    build_domain_set,
    make_exchanger,
)
from .solvers import (
    CaseResult,
    CaseSpec,
    ConvergenceHistory,
    SolverProtocol,
    case_result,
)
from .service import (
    AdmissionController,
    DatabaseService,
    PointQuery,
    QueryResponse,
    ServiceCounters,
    SurrogateConfig,
    TenantQuota,
)
from .solvers.cart3d import Cart3DSolver, make_parallel_cart3d
from .solvers.nsu3d import NSU3DSolver, make_parallel_nsu3d
from .telemetry import (
    EpochClock,
    LatencyHistogram,
    Timeline,
    Tracer,
    add_simmpi_trace,
    add_tracer,
    capture,
    chrome_trace,
    get_tracer,
    load_trace,
    merged_fill_timeline,
    metrics,
    set_tracer,
    span,
    traced,
    write_metrics,
    write_trace,
)

#: The facade surface version: bumped when the blessed surface changes
#: shape (new exports, removals, contract changes) — code against it
#: with ``assert repro.api.__api_version__ >= "4"``-style checks.
__api_version__ = "13.0"

__all__ = [
    # solvers — unified surface
    "Cart3DSolver",
    "NSU3DSolver",
    "make_cart3d_solver",
    "make_nsu3d_solver",
    "SolverProtocol",
    "ConvergenceHistory",
    "CaseSpec",
    "CaseResult",
    "case_result",
    # distributed-solve runtime (one stack for both solvers)
    "SimMPI",
    "Partitioner",
    "MetisLinePartitioner",
    "SFCPartitioner",
    "DistributedDomain",
    "DomainSet",
    "DomainHierarchy",
    "LevelSpec",
    "build_domain_set",
    "build_domain_hierarchy",
    "DistributedSolveDriver",
    "BACKENDS",
    "RuntimeConfig",
    "HybridExchanger",
    "ProcessExchanger",
    "ProcessPool",
    "make_exchanger",
    "GhostSanitizer",
    "make_parallel_nsu3d",
    "make_parallel_cart3d",
    # geometry / meshes
    "Sphere",
    "wing_body",
    "shuttle_stack",
    "adapt_to_geometry",
    "CartesianMesh",
    "HybridMesh",
    "bump_channel",
    "wing_mesh",
    # parameter studies + runtime
    "Axis",
    "ParameterSpace",
    "StudyDefinition",
    "standard_study",
    "FlowJob",
    "GeometryJob",
    "build_job_tree",
    "meshing_amortization",
    "SchedulePlan",
    "schedule_fill",
    "FillRuntime",
    "FillReport",
    "FillEvent",
    "JobOutcome",
    "CaseHandle",
    "Cart3DCaseRunner",
    "ResultStore",
    # durability: checkpoint/resume + fault injection
    "CampaignCheckpoint",
    "CheckpointState",
    "ChaosPolicy",
    # the query service (long-running front end over the fill runtime)
    "DatabaseService",
    "PointQuery",
    "QueryResponse",
    "ServiceCounters",
    "SurrogateConfig",
    "AdmissionController",
    "TenantQuota",
    # the rooted error taxonomy (home: repro.errors)
    "ReproError",
    "ConfigurationError",
    "CaseExecutionError",
    "CaseTimeout",
    "CampaignAborted",
    "CheckpointCorrupt",
    "WorkerCrash",
    "SolverDivergence",
    "RuntimeClosed",
    "ServiceOverloaded",
    "ExchangeLifecycleError",
    "GhostRaceError",
    # workflow + envelope
    "VariableFidelityStudy",
    "AeroInterpolant",
    "FlightState",
    "fly_through",
    "DesignOptimizer",
    "DesignHistory",
    "trim_objective",
    # machine + reporting
    "Columbia",
    "vortex_subcluster",
    "CPUS_PER_NODE",
    "node_slots",
    "fill_summary_table",
    "format_series_table",
    "format_comparison",
    # telemetry — spans, timelines, Perfetto export
    "Tracer",
    "EpochClock",
    "LatencyHistogram",
    "get_tracer",
    "set_tracer",
    "span",
    "traced",
    "capture",
    "Timeline",
    "add_tracer",
    "add_simmpi_trace",
    "merged_fill_timeline",
    "chrome_trace",
    "write_trace",
    "load_trace",
    "metrics",
    "write_metrics",
]


def make_cart3d_solver(
    solid,
    mesh: CartesianMesh | None = None,
    *,
    dim: int = 3,
    base_level: int = 3,
    max_level: int = 5,
    mg_levels: int = 4,
    mach: float = 0.5,
    alpha_deg: float = 0.0,
    beta_deg: float = 0.0,
    **kwargs,
) -> Cart3DSolver:
    """Construct the inviscid Cart3D-style solver.

    ``hierarchy=`` hands on a prebuilt ``build_levels`` pair
    (wind-independent, shareable).
    """
    return Cart3DSolver(
        solid,
        mesh=mesh,
        dim=dim,
        base_level=base_level,
        max_level=max_level,
        mg_levels=mg_levels,
        mach=mach,
        alpha_deg=alpha_deg,
        beta_deg=beta_deg,
        **kwargs,
    )


def make_nsu3d_solver(
    mesh=None,
    *,
    mach: float = 0.75,
    alpha_deg: float = 0.0,
    beta_deg: float = 0.0,
    reynolds: float = 1.0e5,
    mg_levels: int = 4,
    turbulence: bool = True,
    **kwargs,
) -> NSU3DSolver:
    """Construct the high-fidelity NSU3D-style RANS solver."""
    return NSU3DSolver(
        mesh=mesh,
        mach=mach,
        alpha_deg=alpha_deg,
        beta_deg=beta_deg,
        reynolds=reynolds,
        mg_levels=mg_levels,
        turbulence=turbulence,
        **kwargs,
    )
