"""repro — reproduction of *High Resolution Aerospace Applications using the
NASA Columbia Supercomputer* (Mavriplis, Aftosmis & Berger, SC 2005).

The package contains:

``repro.machine``
    An explicit model of the Columbia supercluster — SGI Altix 3700/3700BX2
    nodes, Itanium2 CPUs with a cache-residency compute-rate model, and the
    NUMAlink4 / InfiniBand / 10GigE interconnect fabrics including the
    InfiniBand MPI-connection limit (paper eq. 1).

``repro.comm``
    *SimMPI*, an in-process message-passing runtime.  It executes real
    domain-decomposed SPMD solver code rank by rank — its caller steps
    every rank in lockstep on one thread, posting before it waits —
    while charging a virtual-time ledger using the machine model, and
    implements the paper's hybrid MPI/OpenMP communication strategies.

``repro.mesh``
    Unstructured hybrid meshes with boundary-layer stretching (NSU3D side)
    and adaptively refined cut-cell Cartesian meshes ordered by
    space-filling curves (Cart3D side).

``repro.partition``
    A from-scratch multilevel graph partitioner (the paper uses METIS), the
    implicit-line contraction pre-pass, the space-filling-curve segment
    partitioner, and the greedy coarse/fine partition matcher.

``repro.solvers``
    ``nsu3d``: a finite-volume compressible RANS solver with a one-equation
    turbulence model, point- and line-implicit smoothing and agglomeration
    multigrid.  ``cart3d``: a cell-centered finite-volume Euler solver with
    multigrid-accelerated Runge-Kutta smoothing on Cartesian meshes.

``repro.perf``
    The performance model that replays the paper's scalability experiments
    (figures 14-22) at the paper's scale (72M-point and 25M-cell meshes,
    up to 2016 CPUs) on the simulated machine.

``repro.database``
    Cart3D-style automated parameter-study machinery: configuration-space x
    wind-space job hierarchies, node packing, and the aero-performance
    database with virtual re-runs.

``repro.core``
    The variable-fidelity analysis workflow tying the two solvers together,
    and the registry mapping every paper figure to the code that
    regenerates it.

``repro.errors``
    The rooted error taxonomy: every deliberate failure raised by the
    package is a ``ReproError`` (each class also inherits the builtin it
    replaced, so historical ``except`` clauses keep working).

``repro.api``
    The curated facade: every public entry point re-exported from one
    module, plus the ``make_cart3d_solver``/``make_nsu3d_solver``
    factories all database-side solver construction goes through.
    Start there: ``from repro.api import FillRuntime, wing_body``.
"""

import importlib

__version__ = "1.0.0"

__all__ = [
    "api",
    "errors",
    "machine",
    "comm",
    "mesh",
    "partition",
    "solvers",
    "perf",
    "database",
    "core",
    "util",
]


def __getattr__(name: str):
    # Lazy submodule access: `import repro; repro.api.wing_body()` works
    # without eagerly importing every subsystem at package import time.
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
