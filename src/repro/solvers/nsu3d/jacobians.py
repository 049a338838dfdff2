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

One smoothing step evaluates the per-edge radii once
(:func:`edge_radii`) and feeds all three consumers from them — the local
time step (:func:`spectral_sum`), the diagonal (:func:`edge_diagonal`)
and the along-line couplings (:func:`line_offdiagonals`).  The
convective part of a vertex's diagonal sums ``+-1/2 A(q_a) . S_e`` over
its incident edges with the *same* ``A(q_a)``, and ``A . S`` is linear
in ``S``, so it is formed in closed form as ``A(q_a) . (1/2 sum +-S_e)``
with the bracket cached per level (:attr:`FlowContext.half_face_sum`):
one Jacobian evaluation per vertex, none per edge.  Off-diagonal blocks
are only ever read along the implicit lines, so they are evaluated at
the line edges alone.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ...kernels import get_engine
from ..gas import GAMMA, conservative_to_primitive, pressure, variable_layout
from .context import FlowContext
from .turbulence import CW1, eddy_viscosity


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


class EdgeRadii(NamedTuple):
    """What one state fixes for a whole smoothing step, per face."""

    lam: np.ndarray  # (E,) convective spectral radius per edge
    kv: np.ndarray  # (E,) viscous stiffness per edge
    lam_b: np.ndarray  # (B,) spectral radius per boundary face


def edge_radii(ctx: FlowContext, q: np.ndarray) -> EdgeRadii:
    return EdgeRadii(
        edge_spectral_radius(ctx, q),
        viscous_edge_coefficient(ctx, q),
        boundary_spectral_radius(ctx, q),
    )


def spectral_sum(ctx: FlowContext, radii: EdgeRadii) -> np.ndarray:
    """Per-vertex sum of convective + viscous spectral radii over the
    incident edges and boundary faces: the local-time-step denominator
    (a partial sum on a rank-local context)."""
    engine = get_engine()
    acc = np.zeros(ctx.npoints, dtype=np.float64)
    engine.scatter_add(
        acc, ctx.edge_scatter_unsigned, radii.lam + 2 * radii.kv
    )
    engine.scatter_add(acc, ctx.boundary.scatter, radii.lam_b)
    return acc


def sa_destruction_diagonal(ctx: FlowContext, q: np.ndarray) -> np.ndarray:
    """Pointwise SA destruction linearization per turbulence column.

    Returns ``(N, nturb)`` diagonal increments (``V * 2 cw1 nu / d^2``
    for each working variable).  Pointwise, not edge-split, so it is
    no part of :func:`edge_diagonal` — summing ghost copies across
    ranks would double-count it at owners — and
    :func:`complete_diagonal` adds it after the owner sum.
    """
    layout = variable_layout(q.shape[1])
    prim = conservative_to_primitive(q)
    out = np.empty((ctx.npoints, len(layout.turbulence)), dtype=np.float64)
    for j, var in enumerate(layout.turbulence):
        nu = np.maximum(prim[:, var], 0.0)
        out[:, j] = ctx.volumes * 2.0 * CW1 * nu / ctx.dist**2
    return out


def _block_diagonals(blocks: np.ndarray) -> np.ndarray:
    """Writable ``(..., k)`` view of the diagonals of ``(..., k, k)``."""
    return np.einsum("...ii->...i", blocks)


def edge_diagonal(
    ctx: FlowContext, q: np.ndarray, radii: EdgeRadii
) -> np.ndarray:
    """(N, nvar, nvar) edge- and boundary-face part of the implicit
    diagonal — the part a decomposed level sums across ranks (each face
    lives on one rank): the closed-form convective block plus the
    accumulated ``1/2 lam + k_visc`` (boundary faces: ``1/2 lam``, which
    keeps the diagonal dominant there) on the identity."""
    engine = get_engine()
    ident = np.zeros(ctx.npoints, dtype=np.float64)
    engine.scatter_add(
        ident, ctx.edge_scatter_unsigned, 0.5 * radii.lam + radii.kv
    )
    engine.scatter_add(ident, ctx.boundary.scatter, 0.5 * radii.lam_b)
    diag = engine.euler_jacobian(q, ctx.half_face_sum)
    on_diagonal = _block_diagonals(diag)
    on_diagonal += ident[:, None]
    return diag


def complete_diagonal(
    ctx: FlowContext, q: np.ndarray, diag: np.ndarray, dt: np.ndarray
) -> np.ndarray:
    """Finish :func:`edge_diagonal`'s (owner-summed) blocks in place
    with the pointwise terms — the ``V/dt`` identity and the SA
    destruction linearization — and the strong wall rows."""
    layout = variable_layout(q.shape[1])
    on_diagonal = _block_diagonals(diag)
    on_diagonal += (ctx.volumes / dt)[:, None]
    if layout.turbulence:
        on_diagonal[:, list(layout.turbulence)] += sa_destruction_diagonal(
            ctx, q
        )
    w = ctx.wall_vert
    if len(w):
        for row in layout.momentum + layout.turbulence:
            diag[w, row, :] = 0.0
            diag[w, row, row] = 1.0
    return diag


def line_offdiagonals(
    ctx: FlowContext, q: np.ndarray, radii: EdgeRadii
) -> tuple[np.ndarray, np.ndarray]:
    """Sub/super-diagonal blocks of every along-line link, in
    :attr:`LineStructure.edge` order: ``upper`` couples a line vertex to
    the next one (``dR_i/dq_{i+1}``), ``lower`` the next one back."""
    lines = ctx.line_structure
    e = lines.edge
    ja, jb = get_engine().edge_jacobians(
        q[ctx.edges[e, 0]], q[ctx.edges[e, 1]], ctx.face_vectors[e]
    )
    scal = (0.5 * radii.lam[e] + radii.kv[e])[:, None]
    off_ab = 0.5 * jb  # dR_a/dq_b
    off_ba = -0.5 * ja  # dR_b/dq_a
    for off in (off_ab, off_ba):
        on_diagonal = _block_diagonals(off)
        on_diagonal -= scal
    forward = lines.forward[:, None, None]
    return (
        np.where(forward, off_ba, off_ab), np.where(forward, off_ab, off_ba)
    )
