"""6x6 block Jacobians for the implicit smoothers (paper section III).

"Rather than performing simple explicit time steps on each grid level
... the use of local implicit solvers at each grid point provides a more
efficient solution mechanism.  This mandates the inversion of dense 6x6
block matrices at each grid point at each iteration."

The blocks linearize a Rusanov-form flux: for edge (a, b) with dual face
``S`` (oriented a->b) and spectral radius ``lam``,

    dR_a/dq_a = +1/2 A(q_a) . S + 1/2 lam I + k_visc I
    dR_a/dq_b = +1/2 A(q_b) . S - 1/2 lam I - k_visc I
    dR_b/dq_b = -1/2 A(q_b) . S + 1/2 lam I + k_visc I
    dR_b/dq_a = -1/2 A(q_a) . S - 1/2 lam I - k_visc I

with ``A`` the analytic Euler flux Jacobian and ``k_visc`` the edge
viscous coefficient.  The SA row couples through its advection speed and
a destruction-term diagonal.  Diagonal blocks add ``V/dt`` for the
pseudo-time term; wall-vertex momentum/SA rows are replaced by identity
(strong boundary condition).
"""

from __future__ import annotations

import numpy as np

from ...kernels import get_engine
from ..gas import GAMMA, conservative_to_primitive, pressure, variable_layout
from .context import FlowContext
from .turbulence import CW1, eddy_viscosity


def euler_jacobian(q: np.ndarray, normal: np.ndarray) -> np.ndarray:
    """Analytic flux Jacobian A . S for conservative variables.

    ``q`` is (N, nvar >= 5); ``normal`` (N, 3) carries the face area.
    Returns (N, nvar, nvar); the SA row/column holds passive advection.
    The assembly itself lives in :mod:`repro.kernels` and runs on the
    active engine.
    """
    return get_engine().euler_jacobian(q, normal)


def spectral_radius(
    qm: np.ndarray, vectors: np.ndarray, area: np.ndarray
) -> np.ndarray:
    """``|u . S| + c |S|`` of face states ``qm`` through area vectors
    ``vectors`` with ``area = |vectors|``."""
    u = qm[:, 1:4] / qm[:, 0:1]
    vn = np.abs(np.einsum("ed,ed->e", u, vectors))
    c = np.sqrt(GAMMA * np.maximum(pressure(qm), 1e-12) / qm[:, 0])
    return vn + c * area


def edge_spectral_radius(ctx: FlowContext, q: np.ndarray) -> np.ndarray:
    """(|vn| + c) |S| at each edge from the face-average state."""
    qm = 0.5 * (q[ctx.edges[:, 0]] + q[ctx.edges[:, 1]])
    return spectral_radius(qm, ctx.face_vectors, ctx.edge_area)


def boundary_spectral_radius(ctx: FlowContext, q: np.ndarray) -> np.ndarray:
    """Spectral radius at every boundary face (:attr:`FlowContext.
    boundary` order) — what keeps the diagonal dominant, and the time
    step bounded, at boundary vertices."""
    faces = ctx.boundary
    return spectral_radius(q[faces.vert], faces.normal, faces.normals.area)


def viscous_edge_coefficient(ctx: FlowContext, q: np.ndarray) -> np.ndarray:
    """Scalar viscous stiffness per edge, mu_eff |S| / d."""
    if ctx.mu_lam <= 0.0:
        return np.zeros(ctx.nedges, dtype=np.float64)
    layout = variable_layout(q.shape[1])
    prim = conservative_to_primitive(q)
    mu_t = (
        eddy_viscosity(prim[:, 0], prim[:, layout.turbulence[0]], ctx.mu_lam)
        if layout.turbulence
        else np.zeros(ctx.npoints, dtype=np.float64)
    )
    a = ctx.edges[:, 0]
    b = ctx.edges[:, 1]
    mu_f = ctx.mu_lam + 0.5 * (mu_t[a] + mu_t[b])
    return mu_f * ctx.edge_area / ctx.edge_lengths


def spectral_sum(ctx: FlowContext, q: np.ndarray) -> np.ndarray:
    """Per-vertex sum of convective + viscous spectral radii over the
    incident edges and boundary faces: the local-time-step denominator
    (a partial sum on a rank-local context)."""
    engine = get_engine()
    acc = np.zeros(ctx.npoints, dtype=np.float64)
    engine.scatter_add(
        acc, ctx.edge_scatter_unsigned,
        edge_spectral_radius(ctx, q) + 2 * viscous_edge_coefficient(ctx, q),
    )
    engine.scatter_add(
        acc, ctx.boundary.scatter, boundary_spectral_radius(ctx, q)
    )
    return acc


def sa_destruction_diagonal(ctx: FlowContext, q: np.ndarray) -> np.ndarray:
    """Pointwise SA destruction linearization per turbulence column.

    Returns ``(N, nturb)`` diagonal increments (``V * 2 cw1 nu / d^2``
    for each working variable).  Kept separate from
    :func:`assemble_diagonal`'s edge terms so the distributed path can
    exclude it from the cross-rank exchange-add (it is pointwise, not
    edge-split — summing ghost copies would double-count it at owners)
    and re-add it locally afterwards.
    """
    layout = variable_layout(q.shape[1])
    prim = conservative_to_primitive(q)
    out = np.empty((ctx.npoints, len(layout.turbulence)), dtype=np.float64)
    for j, var in enumerate(layout.turbulence):
        nu = np.maximum(prim[:, var], 0.0)
        out[:, j] = ctx.volumes * 2.0 * CW1 * nu / ctx.dist**2
    return out


def assemble_diagonal(
    ctx: FlowContext,
    q: np.ndarray,
    dt: np.ndarray,
    include_convective_jacobian: bool = True,
    sa_destruction: bool = True,
) -> np.ndarray:
    """(N, nvar, nvar) diagonal blocks of the implicit system.

    ``sa_destruction=False`` leaves out the pointwise SA destruction
    diagonal (:func:`sa_destruction_diagonal`); the distributed smoother
    exchanges only the edge-split part and re-adds the pointwise term
    after the cross-rank sum.
    """
    nvar = q.shape[1]
    layout = variable_layout(nvar)
    n = ctx.npoints
    eye = np.eye(nvar)
    diag = (ctx.volumes / dt)[:, None, None] * eye[None, :, :]

    a = ctx.edges[:, 0]
    b = ctx.edges[:, 1]
    lam = edge_spectral_radius(ctx, q)
    kv = viscous_edge_coefficient(ctx, q)
    scal = 0.5 * lam + kv  # identity part, both endpoints

    engine = get_engine()
    scal_acc = np.zeros(n, dtype=np.float64)
    engine.scatter_add(scal_acc, ctx.edge_scatter_unsigned, scal)
    if include_convective_jacobian:
        ja, jb = engine.edge_jacobians(q[a], q[b], ctx.face_vectors)
        half_a, minus_half_b = ctx.jacobian_scatters
        engine.scatter_add(diag, half_a, ja)
        engine.scatter_add(diag, minus_half_b, jb)
    diag += scal_acc[:, None, None] * eye[None, :, :]

    # boundary spectral radii keep the diagonal dominant at boundaries
    lam_b = boundary_spectral_radius(ctx, q)
    engine.scatter_add(
        diag, ctx.boundary.scatter,
        0.5 * lam_b[:, None, None] * eye[None, :, :],
    )

    # SA destruction linearization (adds to the diagonal only)
    if layout.turbulence and sa_destruction:
        dest = sa_destruction_diagonal(ctx, q)
        for j, var in enumerate(layout.turbulence):
            diag[:, var, var] += dest[:, j]

    # strong wall rows -> identity
    w = ctx.wall_vert
    if len(w):
        for row in layout.momentum + layout.turbulence:
            diag[w, row, :] = 0.0
            diag[w, row, row] = 1.0
    return diag


def edge_offdiagonals(
    ctx: FlowContext, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Off-diagonal blocks per edge: (dR_a/dq_b, dR_b/dq_a)."""
    nvar = q.shape[1]
    a = ctx.edges[:, 0]
    b = ctx.edges[:, 1]
    lam = edge_spectral_radius(ctx, q)
    kv = viscous_edge_coefficient(ctx, q)
    eye = np.eye(nvar)[None, :, :]
    ja, jb = get_engine().edge_jacobians(q[a], q[b], ctx.face_vectors)
    scal = (0.5 * lam + kv)[:, None, None] * eye
    off_ab = 0.5 * jb - scal
    off_ba = -0.5 * ja - scal
    return off_ab, off_ba


def local_time_step(ctx: FlowContext, q: np.ndarray, cfl: float) -> np.ndarray:
    """CFL-scaled local pseudo-time step per vertex."""
    return cfl * ctx.volumes / np.maximum(spectral_sum(ctx, q), 1e-300)
