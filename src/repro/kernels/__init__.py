"""Kernel engines: one contract, two implementations (PR 9).

The hot numerical kernels of both solvers — scatter accumulation, 6x6
block assembly and solves, batched line-tridiagonal factorizations and
sweeps, RK stage updates — dispatch through a :class:`KernelEngine` selected by a frozen
:class:`KernelConfig`, the same shape as the runtime's backend
selection.  ``"numpy"`` is the bit-compatible reference, ``"batched"``
the loop-free fast path; scatter over fixed index sets goes through
prebuilt :class:`ScatterOperator` objects on either.  See DESIGN.md
section 9 for the contract:
parity policy, the ambient-dispatch seam, who owns the engine choice,
and why result cache keys exclude the engine.
"""

from .config import DEFAULT_BLOCK_SIZE, ENGINES, KernelConfig
from .engine import (
    BlockFactor,
    KernelEngine,
    get_engine,
    make_engine,
    use_engine,
)
from .batched import BatchedEngine
from .numpy_engine import NumpyEngine
from .scatter import ScatterOperator, incidence

__all__ = [
    "BatchedEngine",
    "BlockFactor",
    "DEFAULT_BLOCK_SIZE",
    "ENGINES",
    "KernelConfig",
    "KernelEngine",
    "NumpyEngine",
    "ScatterOperator",
    "get_engine",
    "incidence",
    "make_engine",
    "use_engine",
]
