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

Inside :func:`euler_flux`, :func:`max_wave_speed`, :func:`rusanov_flux`
and :func:`wall_flux` the data is component-major: a state is unpacked
once per side into contiguous ``rho, u, v, w, p`` rows
(:func:`~repro.solvers.gas.primitive_rows`), the normal into ``nx, ny,
nz, |S|`` rows (:class:`FaceNormals`), dot products are written out as
``u*nx + v*ny + w*nz``, and the physical Euler flux of each side is built
from the rows already in hand (:func:`_euler_rows`) instead of converting
the state again.  Signatures stay ``(F, nvar)`` in and out, and the
results are bit-identical to the array-of-vectors formulas
(``tests/test_gas_fluxes.py``).  ``rusanov_flux`` and ``wall_flux`` also
accept a prebuilt :class:`FaceNormals`, which is how a level hands over
boundary geometry it split once instead of once per call.

The two interior upwind fluxes, :func:`roe_flux` and
:func:`van_leer_flux`, still work on arrays of vectors.  The same
rewrite is bit-identical and 2.3-4x faster in isolation for both, but
what it saves is per face — the same milliseconds on a serial solve and
on its four-partition twin — and the distributed rows' fixed
per-partition cost then reads as a ``dist_over_serial`` ratio outside
the benchmark's bound; ROADMAP.md has the measurements.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .gas import (
    GAMMA,
    GM1,
    NVAR_EULER,
    conservative_to_primitive,
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


def _split_normal(normal: np.ndarray):
    """``(unit normals (..., 3), areas)`` — the array-of-vectors form
    :func:`van_leer_flux` still works on."""
    normal = np.asarray(normal, dtype=np.float64)
    area = np.linalg.norm(normal, axis=-1)
    safe = np.maximum(area, 1e-300)
    return normal / safe[..., None], area


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
    normal: np.ndarray,
    entropy_fix: float = 0.05,
) -> np.ndarray:
    """Roe's approximate Riemann solver (Harten entropy fix).

    Implemented in the standard wave-decomposition form; state columns
    beyond the Euler block (the SA working variable) are upwinded with
    the interface mass flux.
    """
    ql = np.asarray(ql, dtype=np.float64)
    qr = np.asarray(qr, dtype=np.float64)
    n, area = _split_normal(normal)
    pl = conservative_to_primitive(ql)
    pr = conservative_to_primitive(qr)
    rho_l, u_l, p_l = pl[..., 0], pl[..., 1:4], pl[..., 4]
    rho_r, u_r, p_r = pr[..., 0], pr[..., 1:4], pr[..., 4]
    h_l = (ql[..., 4] + p_l) / rho_l
    h_r = (qr[..., 4] + p_r) / rho_r

    # Roe averages
    sl = np.sqrt(rho_l)
    sr = np.sqrt(rho_r)
    w = sl / (sl + sr)
    u = w[..., None] * u_l + (1 - w)[..., None] * u_r
    h = w * h_l + (1 - w) * h_r
    ke = 0.5 * np.sum(u * u, axis=-1)
    # an unphysical average (h < ke) gets the floored sound speed in the
    # wave strengths too, not a division by a negative or zero a^2
    a2 = np.maximum(GM1 * (h - ke), 1e-12)
    a = np.sqrt(a2)
    un = np.sum(u * n, axis=-1)

    # wave strengths
    drho = rho_r - rho_l
    dp = p_r - p_l
    du = u_r - u_l
    dun = np.sum(du * n, axis=-1)
    rho_roe = sl * sr

    a1 = (dp - rho_roe * a * dun) / (2 * a2)  # u - a wave
    a3 = (dp + rho_roe * a * dun) / (2 * a2)  # u + a wave
    a2w = drho - dp / a2  # entropy wave
    # shear waves: velocity jump minus its normal part
    dut = du - dun[..., None] * n

    lam1 = np.abs(un - a)
    lam2 = np.abs(un)
    lam3 = np.abs(un + a)
    # Harten entropy fix on the nonlinear waves
    eps = entropy_fix * a
    for lam in (lam1, lam3):
        small = lam < eps
        lam[small] = (lam[small] ** 2 / np.maximum(eps[small], 1e-300)
                      + eps[small]) * 0.5

    nvar = ql.shape[-1]
    diss = np.zeros(ql.shape[:-1] + (NVAR_EULER,), dtype=np.float64)

    def add_wave(strength, lam, r0, r13, r4):
        diss[..., 0] += strength * lam * r0
        diss[..., 1:4] += (strength * lam)[..., None] * r13
        diss[..., 4] += strength * lam * r4

    add_wave(a1, lam1, 1.0, u - a[..., None] * n, h - a * un)
    add_wave(a2w, lam2, 1.0, u, ke)
    # shear contribution
    diss[..., 1:4] += (rho_roe * lam2)[..., None] * dut
    diss[..., 4] += rho_roe * lam2 * np.sum(u * dut, axis=-1)
    add_wave(a3, lam3, 1.0, u + a[..., None] * n, h + a * un)

    fl = euler_flux(ql[..., :NVAR_EULER], n)
    fr = euler_flux(qr[..., :NVAR_EULER], n)
    flux5 = 0.5 * (fl + fr) - 0.5 * diss

    if nvar > NVAR_EULER:
        flux = np.empty_like(ql)
        flux[..., :NVAR_EULER] = flux5
        # passive upwinding of extra variables with the mass flux
        mass = flux5[..., 0]
        nu_up = np.where(
            mass[..., None] >= 0,
            ql[..., NVAR_EULER:] / rho_l[..., None],
            qr[..., NVAR_EULER:] / rho_r[..., None],
        )
        flux[..., NVAR_EULER:] = mass[..., None] * nu_up
    else:
        flux = flux5
    return flux * area[..., None]


def van_leer_flux(ql: np.ndarray, qr: np.ndarray, normal: np.ndarray) -> np.ndarray:
    """Van Leer flux-vector splitting, F = F+(ql) + F-(qr)."""
    n, area = _split_normal(normal)
    flux = _van_leer_half(np.asarray(ql, dtype=np.float64), n, +1.0) + \
        _van_leer_half(np.asarray(qr, dtype=np.float64), n, -1.0)
    return flux * area[..., None]


def _van_leer_half(q: np.ndarray, n: np.ndarray, sign: float) -> np.ndarray:
    prim = conservative_to_primitive(q)
    rho, vel, p = prim[..., 0], prim[..., 1:4], prim[..., 4]
    a = np.sqrt(GAMMA * p / rho)
    vn = np.sum(vel * n, axis=-1)
    m = vn / a
    out = np.zeros_like(q)

    full = sign * m >= 1.0  # fully upwind
    if full.any():
        out[full] = euler_flux(q[full], n[full])
    sub = np.abs(m) < 1.0
    if sub.any():
        rs, vs, ps = rho[sub], vel[sub], p[sub]
        a_s, m_s, vn_s = a[sub], m[sub], vn[sub]
        n_s = n[sub]
        fmass = sign * 0.25 * rs * a_s * (m_s + sign) ** 2
        common = (-vn_s + sign * 2.0 * a_s) / GAMMA
        out_sub = np.zeros_like(q[sub])
        out_sub[..., 0] = fmass
        out_sub[..., 1:4] = fmass[..., None] * (
            vs + common[..., None] * n_s
        )
        # energy: van Leer's split enthalpy form
        h_split = (
            0.5 * np.sum(vs * vs, axis=-1)
            - 0.5 * vn_s**2
            + ((GM1) * vn_s + sign * 2 * a_s) ** 2 / (2 * (GAMMA**2 - 1.0))
        )
        out_sub[..., 4] = fmass * h_split
        if q.shape[-1] > NVAR_EULER:
            out_sub[..., NVAR_EULER:] = fmass[..., None] * (
                q[sub][..., NVAR_EULER:] / rs[..., None]
            )
        out[sub] = out_sub
    return out


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
