"""The kernel layer: one contract, one engine.

The hot numerical kernels of both solvers — scatter accumulation, 6x6
block assembly and solves, line-tridiagonal factorizations and sweeps,
RK stage updates — dispatch through the :class:`KernelEngine` protocol
to :class:`NumpyEngine`.  The protocol and :func:`use_engine` are the
seam a probe or a fake substitutes through (``solver.engine``, a
distributed driver's ``kernels.engine``).  Scatter over fixed index
sets goes through prebuilt :class:`ScatterOperator` objects.  See
DESIGN.md section 9.
"""

from .engine import BlockFactor, KernelEngine, get_engine, use_engine
from .numpy_engine import NumpyEngine
from .scatter import ScatterOperator, incidence

__all__ = [
    "BlockFactor",
    "KernelEngine",
    "NumpyEngine",
    "ScatterOperator",
    "get_engine",
    "incidence",
    "use_engine",
]
