"""The kernel-engine contract and the dispatch seam.

:class:`KernelEngine` is the runtime-checkable protocol every engine
implements: the seven hot primitives the solvers dispatch through —
``scatter_add``, ``euler_jacobian`` and ``edge_jacobians`` (Euler
Jacobian blocks, single and per-edge-pair), ``block_solve`` and
``block_factor`` (dense block solves, one-shot and frozen), ``thomas``
(grouped block-tridiagonal solves) and ``rk_update`` — plus
``thomas_factor``, which is to ``thomas`` what ``block_factor`` is to
``block_solve``: it eliminates one group of lines once and returns an
object whose ``solve(rhs)`` only runs the right-hand-side sweeps, so a
smoothing step that applies one frozen operator in three stages factors
it once.  ``thomas(systems)`` is the one-shot ``factor -> solve`` over
several groups; both end in the single recursion of
:class:`~repro.kernels.numpy_engine.ThomasFactor`, and frozen point
blocks in the single :class:`~repro.kernels.numpy_engine.
PrefactoredDiagonal`, whichever engine is active.

Dispatch is ambient: the solver modules call :func:`get_engine` at their
hot sites, and the facades (serial solvers, the ``SolverKernels``
adapters, the case runner) activate their configured engine around each
cycle with :func:`use_engine`.  The default — with nothing activated —
is the reference numpy engine, so every historical entry point keeps its
bitwise behavior.  The active engine rides a :class:`contextvars.
ContextVar`, which makes the selection thread-local-by-default (fill
workers and free-form SimMPI rank threads inherit a copy of the
context) and safe to nest.

:func:`make_engine` turns a :class:`~repro.kernels.config.KernelConfig`
(or bare engine name) into an engine instance.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator, Protocol, runtime_checkable

import numpy as np

from .batched import BatchedEngine
from .config import KernelConfig
from .numpy_engine import NumpyEngine
from .scatter import ScatterOperator


class BlockFactor(Protocol):
    """A frozen, reusable factorization — of point-implicit diagonals
    (``block_factor``) or of one group of block-tridiagonal lines
    (``thomas_factor``)."""

    def solve(self, rhs: np.ndarray) -> np.ndarray: ...


@runtime_checkable
class KernelEngine(Protocol):
    """The hot primitives every kernel engine provides.

    ``scatter_add`` mutates ``out`` in place (the accumulation pattern
    behind residuals, gradients and the implicit diagonal); everything
    else is pure.  Its ``idx`` is either an index array (``out[idx] +=
    contrib``, repeats accumulating) or a prebuilt
    :class:`~repro.kernels.scatter.ScatterOperator` for index sets that
    never change — every engine applies an operator the same way.
    ``thomas`` takes a list of ``(lower, diag, upper, rhs)``
    block-tridiagonal groups — one per line-length class — and returns
    their solutions in order, which is the seam that lets the batched
    engine fuse groups into padded slabs; ``thomas_factor`` takes one
    group's matrix and returns its reusable factorization.
    """

    name: str

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

    def block_solve(
        self, diag: np.ndarray, rhs: np.ndarray
    ) -> np.ndarray: ...

    def block_factor(self, diag: np.ndarray) -> BlockFactor: ...

    def thomas_factor(
        self, lower: np.ndarray, diag: np.ndarray, upper: np.ndarray
    ) -> BlockFactor: ...

    def thomas(self, systems: list) -> list: ...

    def rk_update(
        self, q0: np.ndarray, scale: np.ndarray, r: np.ndarray
    ) -> np.ndarray: ...


#: The reference engine — the ambient default at every dispatch site.
_REFERENCE = NumpyEngine()

_ACTIVE: ContextVar[Any] = ContextVar("repro_kernel_engine", default=None)


def get_engine() -> KernelEngine:
    """The engine active in this context (reference engine by default)."""
    engine = _ACTIVE.get()
    return engine if engine is not None else _REFERENCE


@contextmanager
def use_engine(engine: KernelEngine | None) -> Iterator[KernelEngine]:
    """Activate ``engine`` for the dynamic extent of the ``with`` block.

    ``None`` re-activates the reference engine (useful for pinning a
    bit-exact region inside a batched solve).
    """
    token = _ACTIVE.set(engine)
    try:
        yield engine if engine is not None else _REFERENCE
    finally:
        _ACTIVE.reset(token)


def make_engine(
    config: KernelConfig | str | None = None,
) -> KernelEngine:
    """Build the engine a :class:`KernelConfig` (or bare name) selects."""
    if config is None:
        config = KernelConfig()
    elif isinstance(config, str):
        config = KernelConfig(engine=config)
    if config.engine == "numpy":
        return _REFERENCE
    return BatchedEngine(block_size=config.resolved_block_size)
