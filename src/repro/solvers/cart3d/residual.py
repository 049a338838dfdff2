"""Flux residual for the cell-centered Euler scheme.

The residual of a cell is the net outflow of the conserved quantities:
``R_i = sum_faces F . S`` with the slip-wall pressure flux on embedded
walls and a Rusanov flux against the freestream state on farfield faces.
Second-order accuracy (Cart3D's production setting) comes from
least-squares gradients with van-Albada-limited extrapolation; the
first-order path is what the multigrid coarse levels use, as is
standard.
"""

from __future__ import annotations

import numpy as np

from ...kernels import get_engine
from ..fluxes import roe_flux, rusanov_flux, van_leer_flux, wall_flux
from ..gas import GAMMA, pressure
from .levels import Cart3DLevel

FLUX_FUNCTIONS = {
    "vanleer": van_leer_flux,
    "roe": roe_flux,
    "rusanov": rusanov_flux,
}


def ls_gradient_setup(level: Cart3DLevel) -> tuple[np.ndarray, np.ndarray]:
    """Precompute least-squares gradient geometry.

    Returns ``(ainv, centers)`` where ``ainv`` is the per-cell inverse
    normal matrix ``(sum dr dr^T)^-1`` over face neighbors (regularized
    for cells with too few neighbors).
    """
    centers = level.cut.mesh.centers()[level.cut.flow_cells]
    dim = centers.shape[1]
    a = np.zeros((level.nflow, dim, dim), dtype=np.float64)
    dr = centers[level.face_right] - centers[level.face_left]
    outer = dr[:, :, None] * dr[:, None, :]
    get_engine().scatter_add(a, level.face_scatter_unsigned, outer)
    # regularize rank-deficient cells
    scale = np.trace(a, axis1=1, axis2=2)
    eye = np.eye(dim)[None, :, :]
    a += 1e-8 * np.maximum(scale, 1e-30)[:, None, None] * eye
    return np.linalg.inv(a), centers


def ls_gradients(
    level: Cart3DLevel, q: np.ndarray, ainv: np.ndarray, centers: np.ndarray
) -> np.ndarray:
    """(nflow, dim, nvar) least-squares gradients of all variables."""
    dim = centers.shape[1]
    rhs = np.zeros((level.nflow, dim, q.shape[1]), dtype=np.float64)
    dr = centers[level.face_right] - centers[level.face_left]
    dq = q[level.face_right] - q[level.face_left]
    contrib = dr[:, :, None] * dq[:, None, :]
    get_engine().scatter_add(rhs, level.face_scatter_unsigned, contrib)
    return np.einsum("nij,njk->nik", ainv, rhs)


def residual(
    level: Cart3DLevel,
    q: np.ndarray,
    qinf: np.ndarray,
    flux: str = "vanleer",
    order2: bool = False,
    grad_setup=None,
) -> np.ndarray:
    """Net-outflow residual (nflow, 5); zero at steady state."""
    flux_fn = FLUX_FUNCTIONS[flux]
    engine = get_engine()
    r = np.zeros_like(q)

    ql = q[level.face_left]
    qr = q[level.face_right]
    if order2:
        if grad_setup is None:
            grad_setup = ls_gradient_setup(level)
        ainv, centers = grad_setup
        grad = ls_gradients(level, q, ainv, centers)
        mid = 0.5 * (centers[level.face_left] + centers[level.face_right])
        dl = mid - centers[level.face_left]
        drr = mid - centers[level.face_right]
        dql = np.einsum("nd,ndk->nk", dl, grad[level.face_left])
        dqr = np.einsum("nd,ndk->nk", drr, grad[level.face_right])
        # van-Albada style scalar limiting against the face jump
        jump = qr - ql
        dql = _limit(dql, 0.5 * jump)
        dqr = _limit(dqr, -0.5 * jump)
        ql = ql + dql
        qr = qr + dqr
        # fall back to first order where reconstruction went unphysical
        bad = (ql[:, 0] <= 0) | (qr[:, 0] <= 0)
        if bad.any():
            ql[bad] = q[level.face_left][bad]
            qr[bad] = q[level.face_right][bad]

    engine.scatter_add(
        r, level.face_scatter, flux_fn(ql, qr, level.face_normals)
    )
    add_boundary_fluxes(level, r, q, qinf)
    return r


def add_boundary_fluxes(level, r: np.ndarray, q: np.ndarray,
                        qinf: np.ndarray) -> None:
    """Accumulate the slip-wall and farfield fluxes of a level (or a
    rank-local slice of one) into ``r``."""
    engine = get_engine()
    if len(level.wall_cell):
        engine.scatter_add(
            r, level.wall_scatter,
            wall_flux(q[level.wall_cell], level.wall_normals),
        )
    if len(level.far_cell):
        qf = np.broadcast_to(qinf, (len(level.far_cell), q.shape[1]))
        engine.scatter_add(
            r, level.far_scatter,
            rusanov_flux(q[level.far_cell], qf, level.far_normals),
        )


def _limit(dq: np.ndarray, ref: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Van Albada blend of the reconstruction against the face jump."""
    num = (ref * ref + eps) * dq + (dq * dq + eps) * ref
    den = dq * dq + ref * ref + 2 * eps
    out = num / den
    return np.where(dq * ref > 0, out, 0.0)


def spectral_radius(level, q: np.ndarray) -> np.ndarray:
    """Per-cell sum of |u.n| + c |S| over faces — the local-time-step
    denominator (a partial sum on a rank-local slice of a level)."""
    p = pressure(q)
    c = np.sqrt(GAMMA * p / q[:, 0])
    u = q[:, 1:4] / q[:, 0:1]
    engine = get_engine()
    out = np.zeros(len(level.vol), dtype=np.float64)

    def face_term(cells, normals, area, scatter):
        un = np.abs(np.einsum("nd,nd->n", u[cells], normals))
        engine.scatter_add(out, scatter, un + c[cells] * area)

    face_area = level.face_area
    left, right = level.side_scatters
    face_term(level.face_left, level.face_normal, face_area, left)
    face_term(level.face_right, level.face_normal, face_area, right)
    if len(level.wall_cell):
        face_term(level.wall_cell, level.wall_normal,
                  level.wall_normals.area, level.wall_scatter)
    if len(level.far_cell):
        face_term(level.far_cell, level.far_normal,
                  level.far_normals.area, level.far_scatter)
    return out
