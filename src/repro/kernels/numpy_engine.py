"""The kernel engine, and the two frozen-operator factorizations.

The kernels here are the code the solver modules ran before the engine
layer existed — ``np.add.at`` scatter accumulation (for index arrays; a
prebuilt :class:`~repro.kernels.scatter.ScatterOperator` performs the
same additions in the same order) and the row-filled analytic Euler
Jacobian — plus :class:`PrefactoredDiagonal` (point blocks inverted once
per smoothing step) and :class:`ThomasFactor` (one group of
block-tridiagonal lines eliminated once).  ``tests/test_kernel_engines.py``
keeps the recursion ``ThomasFactor`` replaced (one ``np.linalg.solve``
per station per stage) and a dense tridiagonal solve as its oracles.
"""

from __future__ import annotations

import numpy as np

from .scatter import ScatterOperator


def euler_jacobian(q: np.ndarray, normal: np.ndarray) -> np.ndarray:
    """Analytic flux Jacobian ``A . S`` for conservative variables.

    ``q`` is (N, nvar >= 5); ``normal`` (N, 3) carries the face area.
    Returns (N, nvar, nvar); the SA row/column holds passive advection.
    Extracted from ``solvers/nsu3d/jacobians.py`` — the row fills are
    constant-bound (3x3), already vectorized over N, and measured
    *faster* than the broadcast rewrite at production sizes.
    """
    from ..solvers.gas import GAMMA, GM1, conservative_to_primitive

    q = np.asarray(q, dtype=np.float64)
    nvar = q.shape[1]
    prim = conservative_to_primitive(q)
    u = prim[:, 1:4]
    n = np.asarray(normal, dtype=np.float64)
    vn = np.einsum("nd,nd->n", u, n)  # u . S (area-weighted)
    phi = 0.5 * GM1 * np.sum(u * u, axis=1)
    h = (q[:, 4] + prim[:, 4]) / prim[:, 0]

    a = np.zeros((len(q), nvar, nvar), dtype=np.float64)
    a[:, 0, 1:4] = n
    for i in range(3):
        a[:, 1 + i, 0] = phi * n[:, i] - u[:, i] * vn
        for j in range(3):
            a[:, 1 + i, 1 + j] = (
                u[:, i] * n[:, j] - GM1 * u[:, j] * n[:, i]
            )
        a[:, 1 + i, 1 + i] += vn
        a[:, 1 + i, 4] = GM1 * n[:, i]
    a[:, 4, 0] = vn * (phi - h)
    a[:, 4, 1:4] = h[:, None] * n - GM1 * u * vn[:, None]
    a[:, 4, 4] = GAMMA * vn
    if nvar > 5:
        # passive advection of rho nu_hat; cross-coupling to the mean
        # flow is frozen (standard loosely-coupled Jacobian)
        a[:, 5, 5] = vn
    return a


class PrefactoredDiagonal:
    """Frozen point-implicit blocks, inverted once: a smoothing step
    reapplies the same operator in every stage, so each application is a
    batched mat-vec instead of a fresh LU."""

    def __init__(self, diag: np.ndarray):
        self._inv = np.linalg.inv(diag)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return np.einsum("nab,nb->na", self._inv, rhs)


class ThomasFactor:
    """One group of block-tridiagonal lines, eliminated once.

    Shapes: diag (L, m, k, k); lower/upper (L, m-1, k, k) with
    ``upper[l, i]`` coupling station i to i+1 and ``lower[l, i]``
    station i+1 to i.  The forward elimination — the only part that
    depends on nothing but the matrix — runs here, vectorized across
    the L lines (the paper's groups-of-64 strategy) with the recursion
    over the m stations, and keeps per station the inverse of the
    eliminated diagonal ``D'_i``, ``D'_i^-1 lower_{i-1}`` and ``c'_i =
    D'_i^-1 upper_i``; :meth:`solve` is then one batched mat-vec and the
    two station sweeps per right-hand side.  This is the one Thomas
    recursion: ``thomas_factor`` ends here.
    """

    def __init__(self, lower: np.ndarray, diag: np.ndarray,
                 upper: np.ndarray):
        m = diag.shape[1]
        inv = np.empty_like(diag, dtype=np.float64)
        cprime = np.empty_like(upper, dtype=np.float64)
        for i in range(m):
            dmat = diag[:, i]
            if i:
                dmat = dmat - lower[:, i - 1] @ cprime[:, i - 1]
            inv[:, i] = np.linalg.inv(dmat)
            if i < m - 1:
                cprime[:, i] = inv[:, i] @ upper[:, i]
        self._inv = inv
        self._inv_lower = inv[:, 1:] @ lower
        self._cprime = cprime

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solutions (L, m, k) for right-hand sides (L, m, k)."""
        m = rhs.shape[1]
        out = np.einsum("lmab,lmb->lma", self._inv, rhs)
        for i in range(1, m):
            out[:, i] -= np.einsum(
                "lab,lb->la", self._inv_lower[:, i - 1], out[:, i - 1]
            )
        for i in range(m - 2, -1, -1):
            out[:, i] -= np.einsum(
                "lab,lb->la", self._cprime[:, i], out[:, i + 1]
            )
        return out


class NumpyEngine:
    """The :class:`~repro.kernels.engine.KernelEngine`."""

    def scatter_add(
        self,
        out: np.ndarray,
        idx: np.ndarray | ScatterOperator,
        contrib: np.ndarray | float,
    ) -> None:
        if isinstance(idx, ScatterOperator):
            idx.add_to(out, contrib)
        else:
            np.add.at(out, idx, contrib)

    def euler_jacobian(
        self, q: np.ndarray, normal: np.ndarray
    ) -> np.ndarray:
        return euler_jacobian(q, normal)

    def edge_jacobians(
        self, qa: np.ndarray, qb: np.ndarray, normal: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        # two independent calls, exactly the historical evaluation order
        return euler_jacobian(qa, normal), euler_jacobian(qb, normal)

    def block_factor(self, diag: np.ndarray) -> PrefactoredDiagonal:
        return PrefactoredDiagonal(diag)

    def thomas_factor(self, lower: np.ndarray, diag: np.ndarray,
                      upper: np.ndarray) -> ThomasFactor:
        return ThomasFactor(lower, diag, upper)

    def rk_update(
        self, q0: np.ndarray, scale: np.ndarray, r: np.ndarray
    ) -> np.ndarray:
        return q0 - scale[:, None] * r
