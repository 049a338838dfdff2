"""The kernel-engine contract and the dispatch seam.

:class:`KernelEngine` is the runtime-checkable protocol of the hot
primitives the solvers dispatch through — ``scatter_add``,
``euler_jacobian`` and ``edge_jacobians`` (Euler Jacobian blocks, single
and per-edge-pair), ``block_factor`` (point-implicit diagonals),
``thomas_factor`` (one group of block-tridiagonal lines) and
``rk_update``.  Both factors are frozen: each returns an object whose
``solve(rhs)`` only runs the right-hand-side work, so a smoothing step
that applies one frozen operator in three stages factors it once.

There is one implementation, :class:`~repro.kernels.numpy_engine.
NumpyEngine`.  The protocol stays because it is the seam a fake
substitutes through: a proxy with the same primitives (a call counter,
a timing probe) is assigned to ``solver.engine`` or to a distributed
driver's ``kernels.engine``, and the facade activates whatever it holds.

Dispatch is ambient: the solver modules call :func:`get_engine` at their
hot sites, and the facades (serial solvers, the ``SolverKernels``
adapters) activate their ``engine`` around each cycle with
:func:`use_engine`.  With nothing activated :func:`get_engine` returns
the one engine instance.  The active engine rides a
:class:`contextvars.ContextVar`, which makes the selection
thread-local-by-default (fill workers inherit a copy of the context)
and safe to nest.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Protocol, runtime_checkable

import numpy as np

from .numpy_engine import NumpyEngine
from .scatter import ScatterOperator


class BlockFactor(Protocol):
    """A frozen, reusable factorization — of point-implicit diagonals
    (``block_factor``) or of one group of block-tridiagonal lines
    (``thomas_factor``)."""

    def solve(self, rhs: np.ndarray) -> np.ndarray: ...


@runtime_checkable
class KernelEngine(Protocol):
    """The hot primitives the engine provides.

    ``scatter_add`` mutates ``out`` in place (the accumulation pattern
    behind residuals, gradients and the implicit diagonal); everything
    else is pure.  Its ``idx`` is either an index array (``out[idx] +=
    contrib``, repeats accumulating) or a prebuilt
    :class:`~repro.kernels.scatter.ScatterOperator` for index sets that
    never change.  ``thomas_factor`` takes the matrix of one
    block-tridiagonal group — the lines of one length class — and
    returns its reusable factorization.
    """

    def scatter_add(
        self,
        out: np.ndarray,
        idx: np.ndarray | ScatterOperator,
        contrib: np.ndarray | float,
    ) -> None: ...

    def euler_jacobian(
        self, q: np.ndarray, normal: np.ndarray
    ) -> np.ndarray: ...

    def edge_jacobians(
        self, qa: np.ndarray, qb: np.ndarray, normal: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]: ...

    def block_factor(self, diag: np.ndarray) -> BlockFactor: ...

    def thomas_factor(
        self, lower: np.ndarray, diag: np.ndarray, upper: np.ndarray
    ) -> BlockFactor: ...

    def rk_update(
        self, q0: np.ndarray, scale: np.ndarray, r: np.ndarray
    ) -> np.ndarray: ...


_ACTIVE: ContextVar[KernelEngine] = ContextVar(
    "repro_kernel_engine", default=NumpyEngine()
)


def get_engine() -> KernelEngine:
    """The engine active in this context (the one engine by default)."""
    return _ACTIVE.get()


@contextmanager
def use_engine(engine: KernelEngine) -> Iterator[KernelEngine]:
    """Activate ``engine`` for the dynamic extent of the ``with`` block."""
    token = _ACTIVE.set(engine)
    try:
        yield engine
    finally:
        _ACTIVE.reset(token)
