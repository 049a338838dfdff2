"""The reference kernel engine: today's numpy code, extracted verbatim.

Every kernel here is the exact implementation the solver modules ran
before the engine layer existed — ``np.add.at`` scatter accumulation
(for index arrays; a prebuilt :class:`~repro.kernels.scatter.
ScatterOperator` performs the same additions in the same order and is
applied identically by every engine), the row-filled analytic Euler
Jacobian, per-group block-Thomas
recursions, repeated ``np.linalg.solve`` on frozen diagonals.  It is the
bit-compatibility anchor: the parity matrix in
``tests/test_kernel_engines.py`` pins every other engine against it, and
the seed test suite's pinned histories reproduce on it exactly.

Being the reference, this module is the one engine exempt from lint
rule R013 (no per-point Python loops in engine modules): its loops *are*
the specification the fast engines must match.
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


def block_thomas(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Batched block-tridiagonal LU solve (the reference recursion).

    Shapes: diag (L, m, k, k); lower/upper (L, m-1, k, k); rhs (L, m, k).
    Vectorized across the L lines of the batch; the recursion runs over
    the m stations.  Extracted from ``solvers/nsu3d/linesolve.py``.
    """
    L, m, k, _ = diag.shape
    cprime = np.empty((L, max(m - 1, 0), k, k), dtype=np.float64)
    dprime = np.empty((L, m, k), dtype=np.float64)
    dmat = diag[:, 0]
    if m > 1:
        cprime[:, 0] = np.linalg.solve(dmat, upper[:, 0])
    dprime[:, 0] = np.linalg.solve(dmat, rhs[:, 0][..., None])[..., 0]
    for i in range(1, m):
        dmat = diag[:, i] - np.einsum(
            "lab,lbc->lac", lower[:, i - 1], cprime[:, i - 1]
        )
        if i < m - 1:
            cprime[:, i] = np.linalg.solve(dmat, upper[:, i])
        rhs_i = rhs[:, i] - np.einsum(
            "lab,lb->la", lower[:, i - 1], dprime[:, i - 1]
        )
        dprime[:, i] = np.linalg.solve(dmat, rhs_i[..., None])[..., 0]
    out = np.empty((L, m, k), dtype=np.float64)
    out[:, m - 1] = dprime[:, m - 1]
    for i in range(m - 2, -1, -1):
        out[:, i] = dprime[:, i] - np.einsum(
            "lab,lb->la", cprime[:, i], out[:, i + 1]
        )
    return out


class _RepeatedSolveFactor:
    """Frozen-operator point solves, reference style: keep the diagonal
    and call ``np.linalg.solve`` per stage — bitwise what the solvers
    did before factoring existed."""

    def __init__(self, diag: np.ndarray):
        self._diag = diag

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return np.linalg.solve(self._diag, rhs[:, :, None])[:, :, 0]


class NumpyEngine:
    """The reference :class:`~repro.kernels.engine.KernelEngine`."""

    name = "numpy"

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

    def block_solve(self, diag: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        return np.linalg.solve(diag, rhs[:, :, None])[:, :, 0]

    def block_factor(self, diag: np.ndarray) -> _RepeatedSolveFactor:
        return _RepeatedSolveFactor(diag)

    def thomas(self, systems: list) -> list:
        return [
            block_thomas(lower, diag, upper, rhs)
            for lower, diag, upper, rhs in systems
        ]

    def rk_update(
        self, q0: np.ndarray, scale: np.ndarray, r: np.ndarray
    ) -> np.ndarray:
        return q0 - scale[:, None] * r
