"""Edge-based RANS residual (paper section III).

The discretization follows the paper's description of NSU3D: a
second-order control-volume scheme with unknowns at the grid points —
convective fluxes along edges through the median-dual face vectors (Roe
scheme, MUSCL reconstruction from Green-Gauss vertex gradients with a
van Albada limiter), nearest-neighbor viscous terms, and the one-equation
Spalart-Allmaras model solved coupled as the sixth unknown.

Substitution recorded in DESIGN.md: the full viscous stress tensor is
approximated by its edge-normal (thin-shear-layer-like) component —
standard practice for edge-based solvers and sufficient for boundary
layers on our wall-normal-stretched meshes.  The no-slip wall is imposed
strongly: wall-vertex momentum and turbulence rows are removed from the
system (:func:`apply_wall_bc` / the masking in :func:`residual`).

Residual convention: ``dq/dt = -R / V``; at steady state ``R = 0``.
"""

from __future__ import annotations

import numpy as np

from ...kernels import get_engine
from ...telemetry.spans import traced
from ..fluxes import roe_flux, rusanov_flux, wall_flux
from ..gas import (
    GAMMA,
    GM1,
    conservative_to_primitive,
    primitive_to_conservative,
    variable_layout,
)
from ..limiters import van_albada
from .context import FlowContext
from .gradients import green_gauss, green_gauss_sums, vorticity_magnitude
from .turbulence import (
    cb2_term,
    diffusion_coefficient,
    eddy_viscosity,
    source_terms,
)

PRANDTL = 0.72
PRANDTL_T = 0.9

#: Exchange tags of the owner sums :func:`sa_gradients` completes on a
#: decomposed level (fine-level Green-Gauss sums, coarse-level
#: vorticity estimate).
TAG_SA_GRADIENTS = 15
TAG_SA_VORTICITY = 16


def apply_wall_bc(ctx: FlowContext, q: np.ndarray) -> np.ndarray:
    """Enforce no-slip adiabatic wall strongly: zero momentum and zero
    turbulence working variables at wall vertices."""
    layout = variable_layout(q.shape[1])
    q = q.copy()
    w = ctx.wall_vert
    if len(w):
        mom = list(layout.momentum)
        ke = 0.5 * np.sum(q[w][:, mom] ** 2, axis=1) / q[w, layout.density]
        # remove kinetic energy so pressure is unchanged
        q[w, layout.energy] -= ke
        for var in layout.momentum:
            q[w, var] = 0.0
        for var in layout.turbulence:
            q[w, var] = 0.0
    return q


def mask_wall_rows(ctx: FlowContext, r: np.ndarray) -> np.ndarray:
    """Zero the strongly-imposed rows (momentum + SA) at wall vertices."""
    layout = variable_layout(r.shape[1])
    w = ctx.wall_vert
    if len(w):
        for var in layout.momentum + layout.turbulence:
            r[w, var] = 0.0
    return r


def residual(
    ctx: FlowContext,
    q: np.ndarray,
    qinf: np.ndarray,
    order2: bool = False,
    turbulence: bool = True,
    viscous: bool = True,
) -> np.ndarray:
    """Net-outflow residual (N, nvar): :func:`flux_residual` plus the
    pointwise SA sources, strong wall rows masked."""
    r = flux_residual(ctx, q, qinf, order2, turbulence, viscous)
    sa_var = sa_source_column(ctx, q.shape[1], turbulence, viscous)
    if sa_var is not None:
        prim = conservative_to_primitive(q)
        r[:, sa_var] += sa_source_residual(ctx, prim,
                                           *sa_gradients(ctx, prim))
    return mask_wall_rows(ctx, r)


@traced("nsu3d.residual", cat="solver")
def flux_residual(
    ctx: FlowContext,
    q: np.ndarray,
    qinf: np.ndarray,
    order2: bool = False,
    turbulence: bool = True,
    viscous: bool = True,
) -> np.ndarray:
    """The edge and boundary terms of the residual (N, nvar), wall rows
    not masked.  Every term is a sum over edges or boundary faces, so a
    decomposed level evaluates it per partition and completes it with
    an exchange-add; the pointwise SA sources follow, from completed
    gradients (:func:`sa_gradients`, :func:`sa_source_residual`)."""
    nvar = q.shape[1]
    layout = variable_layout(nvar)
    turbulence = turbulence and bool(layout.turbulence)
    engine = get_engine()
    a_idx = ctx.edges[:, 0]
    b_idx = ctx.edges[:, 1]
    r = np.zeros_like(q)

    prim = conservative_to_primitive(q)

    # -- convective fluxes along edges ---------------------------------------
    ql = q[a_idx]
    qr = q[b_idx]
    grad_prim = None
    if order2 and ctx.dual is not None:
        grad_prim = green_gauss(ctx.dual, prim, ctx.gradient_scatters)
        dl, dr = ctx.muscl_offsets
        pl = prim[a_idx] + van_albada(
            np.einsum("ed,edk->ek", dl, grad_prim[a_idx]),
            0.5 * (prim[b_idx] - prim[a_idx]),
        )
        pr = prim[b_idx] + van_albada(
            np.einsum("ed,edk->ek", dr, grad_prim[b_idx]),
            0.5 * (prim[a_idx] - prim[b_idx]),
        )
        ok = (pl[:, 0] > 0) & (pl[:, 4] > 0) & (pr[:, 0] > 0) & (pr[:, 4] > 0)
        ql = np.where(ok[:, None], primitive_to_conservative(pl), ql)
        qr = np.where(ok[:, None], primitive_to_conservative(pr), qr)

    engine.scatter_add(
        r, ctx.edge_scatter, roe_flux(ql, qr, ctx.edge_normals)
    )

    # -- boundary convective fluxes -------------------------------------------
    if len(ctx.far_vert):
        q_far = q[ctx.far_vert]
        ghost = farfield_ghost(q_far, qinf, ctx.far_normal)
        engine.scatter_add(
            r, ctx.far.scatter, rusanov_flux(q_far, ghost, ctx.far.normals)
        )
    # slip planes, and walls where u = 0: only the pressure flux survives
    # (wall momentum rows are masked anyway; continuity/energy see zero
    # convective flux)
    slip = ctx.slip
    if len(slip.vert):
        engine.scatter_add(
            r, slip.scatter, wall_flux(q[slip.vert], slip.normals)
        )

    # -- viscous terms (edge-normal approximation) ------------------------------
    if viscous and ctx.mu_lam > 0.0:
        rho = prim[:, 0]
        vel = prim[:, 1:4]
        sa_var = layout.turbulence[0] if layout.turbulence else None
        nu_hat = prim[:, sa_var] if sa_var is not None else None
        mu_t = (
            eddy_viscosity(rho, nu_hat, ctx.mu_lam)
            if turbulence
            else np.zeros_like(rho)
        )
        area = ctx.edge_area
        dist = ctx.edge_lengths
        mu_f = ctx.mu_lam + 0.5 * (mu_t[a_idx] + mu_t[b_idx])
        coef = mu_f * area / dist  # (E,)

        dvel = vel[b_idx] - vel[a_idx]
        fv = np.zeros((ctx.nedges, nvar), dtype=np.float64)
        fv[:, 1:4] = -coef[:, None] * dvel
        # energy: shear work + heat conduction (edge-normal forms)
        vbar = 0.5 * (vel[a_idx] + vel[b_idx])
        t = prim[:, 4] / rho  # T = p / (rho R) with gas constant R = 1
        # conductivity = cp (mu/Pr + mu_t/Pr_t), cp = gamma R / (gamma - 1)
        kappa_f = (GAMMA / GM1) * (
            ctx.mu_lam / PRANDTL + 0.5 * (mu_t[a_idx] + mu_t[b_idx]) / PRANDTL_T
        )
        fv[:, 4] = -coef * np.einsum("ed,ed->e", vbar, dvel) - kappa_f * area / dist * (
            t[b_idx] - t[a_idx]
        )
        if turbulence:
            dcoef = (
                diffusion_coefficient(
                    rho[a_idx], rho[b_idx], nu_hat[a_idx], nu_hat[b_idx],
                    ctx.mu_lam,
                )
                * area / dist
            )
            fv[:, sa_var] = -dcoef * (nu_hat[b_idx] - nu_hat[a_idx])
        engine.scatter_add(r, ctx.edge_scatter, fv)

    return r


def sa_source_column(ctx: FlowContext, nvar: int, turbulence: bool,
                     viscous: bool) -> int | None:
    """The SA working-variable column when the pointwise SA sources
    apply (a turbulent layout, viscous terms on, ``mu > 0``), else
    ``None``."""
    layout = variable_layout(nvar)
    if turbulence and layout.turbulence and viscous and ctx.mu_lam > 0.0:
        return layout.turbulence[0]
    return None


def sa_gradients(ctx: FlowContext, prim: np.ndarray,
                 owner_sum=None) -> tuple[np.ndarray, np.ndarray]:
    """Vorticity magnitude and SA working-variable gradient ``(vort,
    grad_nu)`` of the primitive state ``prim``.

    Fine levels take Green-Gauss gradients over the dual; agglomerated
    levels estimate the vorticity as the mean ``|dvel| / |dx|`` over
    incident edges and set ``grad_nu`` to zero.  ``owner_sum(array,
    tag)``, when given, completes the partial surface or edge sums
    across the ranks of a decomposed level before they are divided —
    the hook :class:`~.linesolve.FrozenOperator` takes."""
    vel = prim[:, 1:4]
    if ctx.dual is not None:
        fields = np.column_stack(
            [vel, prim[:, variable_layout(prim.shape[1]).turbulence[0]]]
        )
        sums = green_gauss_sums(ctx.dual, fields, ctx.gradient_scatters)
        if owner_sum is not None:
            owner_sum(sums.reshape(ctx.npoints, -1), TAG_SA_GRADIENTS)
        grads = sums / ctx.volumes[:, None, None]
        return vorticity_magnitude(grads[:, :, :3]), grads[:, :, 3]
    a, b = ctx.edges[:, 0], ctx.edges[:, 1]
    rate = np.linalg.norm(vel[b] - vel[a], axis=1) / ctx.edge_lengths
    total = np.zeros(ctx.npoints, dtype=np.float64)
    get_engine().scatter_add(total, ctx.edge_scatter_unsigned, rate)
    accs = np.column_stack([total, ctx.edge_degree])
    if owner_sum is not None:
        owner_sum(accs, TAG_SA_VORTICITY)
    vort = accs[:, 0] / np.maximum(accs[:, 1], 1.0)
    return vort, np.zeros((ctx.npoints, 3), dtype=np.float64)


def sa_source_residual(
    ctx: FlowContext,
    prim: np.ndarray,
    vort: np.ndarray,
    grad_nu: np.ndarray,
    rows: np.ndarray | slice = slice(None),
) -> np.ndarray:
    """Pointwise SA source contribution to the working-variable column
    at ``rows``: ``(destruction - production) * V`` with the cb2
    gradient-squared term folded into production.  A decomposed level
    evaluates it at owned rows only, from completed ``vort`` /
    ``grad_nu``."""
    rho = prim[rows, 0]
    nu_hat = prim[rows, variable_layout(prim.shape[1]).turbulence[0]]
    prod, dest = source_terms(rho, nu_hat, vort[rows], ctx.dist[rows],
                              ctx.mu_lam)
    prod = prod + cb2_term(grad_nu[rows], rho)
    return (dest - prod) * ctx.volumes[rows]


def farfield_ghost(
    q: np.ndarray, qinf: np.ndarray, normal: np.ndarray
) -> np.ndarray:
    """Subsonic characteristic far-field ghost state.

    Outflow (u.n > 0): interior state with the freestream static
    pressure imposed — the standard pressure-outflow that lets boundary
    layers and wakes exit cleanly.  Inflow: freestream state with the
    interior pressure (one outgoing characteristic).  Supersonic faces
    reduce to full extrapolation / full freestream automatically through
    the upwind flux.
    """
    nvert = len(q)
    prim_i = conservative_to_primitive(q)
    prim_f = conservative_to_primitive(
        np.broadcast_to(qinf, (nvert, q.shape[1])).copy()
    )
    un = np.einsum("nd,nd->n", prim_i[:, 1:4], normal)
    ghost = np.where(un[:, None] > 0, prim_i, prim_f)
    ghost = ghost.copy()
    ghost[:, 4] = np.where(un > 0, prim_f[:, 4], prim_i[:, 4])
    return primitive_to_conservative(ghost)


def residual_norm(ctx: FlowContext, q, qinf, **kw) -> float:
    """Volume-scaled L2 norm of the continuity residual — the quantity
    plotted in the paper's figure 14(a)."""
    r = residual(ctx, q, qinf, **kw)
    return float(np.sqrt(np.mean((r[:, 0] / ctx.volumes) ** 2)))
