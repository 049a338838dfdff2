"""Upwind numerical fluxes for the compressible equations.

Both papers' solvers are second-order upwind finite-volume schemes;
Cart3D is "cell-centered, finite-volume upwind", NSU3D an edge-based
control-volume scheme.  Three interface fluxes are provided, each
vectorized over faces with arbitrary (non-unit) area normals:

* :func:`rusanov_flux` — local Lax-Friedrichs; maximal robustness, used
  for farfield ghosts and as the implicit smoother's dissipation model;
* :func:`roe_flux` — Roe's approximate Riemann solver with an entropy
  fix (NSU3D-style convective discretization);
* :func:`van_leer_flux` — van Leer flux-vector splitting (the classic
  Cartesian-solver upwinding, our Cart3D analog).

Extra state columns beyond the five mean-flow variables (the SA working
variable) are upwinded passively with the interface mass flux.

Every kernel here is component-major: a state is unpacked once per side
into contiguous ``rho, u, v, w, p`` rows
(:func:`~repro.solvers.gas.primitive_rows`), the normal into ``nx, ny,
nz, |S|`` rows (:class:`FaceNormals`), dot products are written out as
``u*nx + v*ny + w*nz``, and the physical Euler flux of each side is built
from the rows already in hand (:func:`_euler_rows`) instead of converting
the state again.  Branches are taken per face by ``np.where`` over rows
computed for every face (van Leer's sub/supersonic split, Roe's entropy
fix), skipped when no face needs the other branch, rather than by
boolean-mask gathers and scatters.  Signatures stay ``(F, nvar)`` in and
out, and the results are bit-identical — signed zeros included — to the
array-of-vectors formulas ``tests/test_gas_fluxes.py`` keeps as oracles.
The interface and boundary fluxes accept a prebuilt :class:`FaceNormals`,
which is how a level hands over geometry it split once instead of once
per call.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .gas import (
    GAMMA,
    GM1,
    NVAR_EULER,
    pressure,
    primitive_rows,
)


class FaceNormals(NamedTuple):
    """Area-weighted face normals split into unit-normal component rows
    and areas (zero-area faces get a zero unit normal, not NaN)."""

    nx: np.ndarray
    ny: np.ndarray
    nz: np.ndarray
    area: np.ndarray


def split_normals(normal: np.ndarray | FaceNormals) -> FaceNormals:
    """Split ``(..., 3)`` area-weighted normals; a :class:`FaceNormals`
    passes through untouched."""
    if isinstance(normal, FaceNormals):
        return normal
    normal = np.asarray(normal, dtype=np.float64)
    area = np.linalg.norm(normal, axis=-1)
    safe = np.maximum(area, 1e-300)
    return FaceNormals(
        normal[..., 0] / safe, normal[..., 1] / safe, normal[..., 2] / safe,
        area,
    )


def _euler_rows(rho, u, v, w, p, energy, nx, ny, nz):
    """Rows of the physical flux through a unit normal from primitive
    rows: ``(vn, mass, x-, y-, z-momentum, energy)``."""
    vn = u * nx + v * ny + w * nz
    return (
        vn,
        rho * vn,
        rho * u * vn + p * nx,
        rho * v * vn + p * ny,
        rho * w * vn + p * nz,
        (energy + p) * vn,
    )


def _assemble(shape: tuple, nvar: int, rows, scale=None) -> np.ndarray:
    """``(..., nvar)`` array whose first columns are ``rows`` (times
    ``scale``); columns past them are left for the caller to fill."""
    out = np.empty(shape + (nvar,), dtype=np.float64)
    for j, row in enumerate(rows):
        out[..., j] = row if scale is None else row * scale
    return out


def euler_flux(cons: np.ndarray, unit_normal: np.ndarray) -> np.ndarray:
    """Physical inviscid flux through a unit normal (per unit area)."""
    cons = np.asarray(cons, dtype=np.float64)
    unit_normal = np.asarray(unit_normal, dtype=np.float64)
    vn, *rows = _euler_rows(
        *primitive_rows(cons), cons[..., 4],
        unit_normal[..., 0], unit_normal[..., 1], unit_normal[..., 2],
    )
    out = _assemble(vn.shape, cons.shape[-1], rows)
    out[..., NVAR_EULER:] = cons[..., NVAR_EULER:] * vn[..., None]
    return out


def max_wave_speed(cons: np.ndarray, unit_normal: np.ndarray) -> np.ndarray:
    rho, u, v, w, p = primitive_rows(cons)
    unit_normal = np.asarray(unit_normal, dtype=np.float64)
    vn = u * unit_normal[..., 0] + v * unit_normal[..., 1] \
        + w * unit_normal[..., 2]
    return np.abs(vn) + np.sqrt(GAMMA * p / rho)


def rusanov_flux(
    ql: np.ndarray, qr: np.ndarray, normal: np.ndarray | FaceNormals
) -> np.ndarray:
    """Local Lax-Friedrichs flux; ``normal`` carries the face area."""
    ql = np.asarray(ql, dtype=np.float64)
    qr = np.asarray(qr, dtype=np.float64)
    nx, ny, nz, area = split_normals(normal)
    rho_l, u_l, v_l, w_l, p_l = primitive_rows(ql)
    rho_r, u_r, v_r, w_r, p_r = primitive_rows(qr)
    vn_l, *fl = _euler_rows(rho_l, u_l, v_l, w_l, p_l, ql[..., 4], nx, ny, nz)
    vn_r, *fr = _euler_rows(rho_r, u_r, v_r, w_r, p_r, qr[..., 4], nx, ny, nz)
    half_lam = 0.5 * np.maximum(
        np.abs(vn_l) + np.sqrt(GAMMA * p_l / rho_l),
        np.abs(vn_r) + np.sqrt(GAMMA * p_r / rho_r),
    )
    flux = _assemble(
        half_lam.shape, ql.shape[-1],
        [
            0.5 * (a + b) - half_lam * (qr[..., j] - ql[..., j])
            for j, (a, b) in enumerate(zip(fl, fr))
        ],
        scale=area,
    )
    extra_l = ql[..., NVAR_EULER:]
    extra_r = qr[..., NVAR_EULER:]
    flux[..., NVAR_EULER:] = (
        0.5 * (extra_l * vn_l[..., None] + extra_r * vn_r[..., None])
        - half_lam[..., None] * (extra_r - extra_l)
    ) * area[..., None]
    return flux


def roe_flux(
    ql: np.ndarray,
    qr: np.ndarray,
    normal: np.ndarray | FaceNormals,
    entropy_fix: float = 0.05,
) -> np.ndarray:
    """Roe's approximate Riemann solver (Harten entropy fix).

    Implemented in the standard wave-decomposition form; state columns
    beyond the Euler block (the SA working variable) are upwinded with
    the interface mass flux.
    """
    ql = np.asarray(ql, dtype=np.float64)
    qr = np.asarray(qr, dtype=np.float64)
    nx, ny, nz, area = split_normals(normal)
    rho_l, u_l, v_l, w_l, p_l = primitive_rows(ql)
    rho_r, u_r, v_r, w_r, p_r = primitive_rows(qr)
    h_l = (ql[..., 4] + p_l) / rho_l
    h_r = (qr[..., 4] + p_r) / rho_r

    # Roe averages
    sl = np.sqrt(rho_l)
    sr = np.sqrt(rho_r)
    wl = sl / (sl + sr)
    wr = 1 - wl
    u = wl * u_l + wr * u_r
    v = wl * v_l + wr * v_r
    w = wl * w_l + wr * w_r
    h = wl * h_l + wr * h_r
    ke = 0.5 * (u * u + v * v + w * w)
    # an unphysical average (h < ke) gets the floored sound speed in the
    # wave strengths too, not a division by a negative or zero a^2
    a2 = np.maximum(GM1 * (h - ke), 1e-12)
    a = np.sqrt(a2)
    un = u * nx + v * ny + w * nz

    # wave strengths
    dp = p_r - p_l
    du, dv, dw = u_r - u_l, v_r - v_l, w_r - w_l
    dun = du * nx + dv * ny + dw * nz
    rho_roe = sl * sr
    jump = rho_roe * a * dun

    lam2 = np.abs(un)
    eps = entropy_fix * a

    def fixed(lam):
        """Harten entropy fix on a nonlinear wave."""
        small = lam < eps
        if not small.any():
            return lam
        return np.where(
            small, (lam ** 2 / np.maximum(eps, 1e-300) + eps) * 0.5, lam
        )

    k1 = (dp - jump) / (2 * a2) * fixed(np.abs(un - a))  # u - a wave
    k2 = ((rho_r - rho_l) - dp / a2) * lam2  # entropy wave
    k3 = (dp + jump) / (2 * a2) * fixed(np.abs(un + a))  # u + a wave
    # shear waves: velocity jump minus its normal part
    shear = rho_roe * lam2
    tx, ty, tz = du - dun * nx, dv - dun * ny, dw - dun * nz
    aun = a * un
    # each row is summed from +0.0 in wave order (u - a, entropy, shear,
    # u + a): a sum of negative zeros keeps its sign otherwise
    diss = (
        0.0 + k1 + k2 + k3,
        0.0 + k1 * (u - a * nx) + k2 * u + shear * tx + k3 * (u + a * nx),
        0.0 + k1 * (v - a * ny) + k2 * v + shear * ty + k3 * (v + a * ny),
        0.0 + k1 * (w - a * nz) + k2 * w + shear * tz + k3 * (w + a * nz),
        0.0 + k1 * (h - aun) + k2 * ke
        + shear * (u * tx + v * ty + w * tz) + k3 * (h + aun),
    )

    _, *fl = _euler_rows(rho_l, u_l, v_l, w_l, p_l, ql[..., 4], nx, ny, nz)
    _, *fr = _euler_rows(rho_r, u_r, v_r, w_r, p_r, qr[..., 4], nx, ny, nz)
    rows = [0.5 * (f + g) - 0.5 * d for f, g, d in zip(fl, fr, diss)]
    flux = _assemble(rows[0].shape, ql.shape[-1], rows, scale=area)
    if ql.shape[-1] > NVAR_EULER:
        # passive upwinding of extra variables with the mass flux
        mass = rows[0][..., None]
        nu_up = np.where(
            mass >= 0,
            ql[..., NVAR_EULER:] / rho_l[..., None],
            qr[..., NVAR_EULER:] / rho_r[..., None],
        )
        flux[..., NVAR_EULER:] = mass * nu_up * area[..., None]
    return flux


def van_leer_flux(
    ql: np.ndarray, qr: np.ndarray, normal: np.ndarray | FaceNormals
) -> np.ndarray:
    """Van Leer flux-vector splitting, F = F+(ql) + F-(qr)."""
    ql = np.asarray(ql, dtype=np.float64)
    qr = np.asarray(qr, dtype=np.float64)
    nx, ny, nz, area = split_normals(normal)
    plus, extra_p = _van_leer_half(ql, nx, ny, nz, +1.0)
    minus, extra_m = _van_leer_half(qr, nx, ny, nz, -1.0)
    rows = [a + b for a, b in zip(plus, minus)]
    flux = _assemble(rows[0].shape, ql.shape[-1], rows, scale=area)
    flux[..., NVAR_EULER:] = (extra_p + extra_m) * area[..., None]
    return flux


def _van_leer_half(q, nx, ny, nz, sign: float):
    """One side's split flux per unit area: the five Euler rows and the
    ``(..., nvar - 5)`` passive columns.  The subsonic formula is
    evaluated on every face and the branch picked per face afterwards;
    a face that is neither subsonic nor fully upwind — downwind, or a
    NaN state — contributes zero."""
    rho, u, v, w, p = primitive_rows(q)
    a = np.sqrt(GAMMA * p / rho)
    vn = u * nx + v * ny + w * nz
    m = vn / a
    fmass = sign * 0.25 * rho * a * (m + sign) ** 2
    common = (-vn + sign * 2.0 * a) / GAMMA
    # energy: van Leer's split enthalpy form
    h_split = (
        0.5 * (u * u + v * v + w * w)
        - 0.5 * vn**2
        + (GM1 * vn + sign * 2 * a) ** 2 / (2 * (GAMMA**2 - 1.0))
    )
    rows = [
        fmass,
        fmass * (u + common * nx),
        fmass * (v + common * ny),
        fmass * (w + common * nz),
        fmass * h_split,
    ]
    passive = q[..., NVAR_EULER:]
    extra = fmass[..., None] * (passive / rho[..., None])
    sub = np.abs(m) < 1.0
    if not sub.all():
        full = sign * m >= 1.0  # fully upwind: the physical flux
        _, *phys = _euler_rows(rho, u, v, w, p, q[..., 4], nx, ny, nz)
        rows = [
            np.where(sub, row, np.where(full, f, 0.0))
            for row, f in zip(rows, phys)
        ]
        extra = np.where(
            sub[..., None], extra,
            np.where(full[..., None], passive * vn[..., None], 0.0),
        )
    return rows, extra


def wall_flux(
    cons: np.ndarray, normal: np.ndarray | FaceNormals
) -> np.ndarray:
    """Slip-wall (inviscid) flux: pressure only, no mass crosses."""
    cons = np.asarray(cons, dtype=np.float64)
    nx, ny, nz, area = split_normals(normal)
    p = pressure(cons)
    out = np.zeros(p.shape + cons.shape[-1:], dtype=np.float64)
    out[..., 1] = p * nx * area
    out[..., 2] = p * ny * area
    out[..., 3] = p * nz * area
    return out
