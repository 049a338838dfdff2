"""Perfect-gas relations and state conversions shared by both solvers.

States are stored conservatively.  Cart3D's Euler solver carries five
unknowns per cell, ``[rho, rho u, rho v, rho w, rho E]``; NSU3D carries
six per point — the same five plus the turbulence working variable
``rho nu_t`` (paper section III: "The six degrees of freedom at each grid
point consist of the density, three-dimensional momentum vector, energy,
and turbulence variable").  All routines are vectorized over ``(N, nvar)``
arrays and accept either width; the turbulence variable passes through
conversions untouched (it is advected like a passive scalar).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

GAMMA = 1.4
GM1 = GAMMA - 1.0

#: Variable counts: Euler (Cart3D) and RANS+SA (NSU3D)
NVAR_EULER = 5
NVAR_RANS = 6


@dataclass(frozen=True)
class VariableLayout:
    """Column roles in an ``(N, nvar)`` conservative state array.

    Both solvers store ``[rho, rho u, rho v, rho w, rho E]`` in the
    first five columns; anything beyond is a turbulence working
    variable.  Code that treats specific columns specially (correction
    limiting, positivity handling) should read the slots from here
    rather than hard-coding indices, so wider state vectors keep
    working.
    """

    nvar: int
    density: int = 0
    momentum: tuple[int, int, int] = (1, 2, 3)
    energy: int = 4
    #: turbulence working-variable columns (empty for pure Euler states)
    turbulence: tuple[int, ...] = field(init=False)
    #: columns guarded by relative-change limiting (thermodynamic state)
    limited: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.nvar < NVAR_EULER:
            raise ValueError(
                f"state needs at least {NVAR_EULER} variables, got {self.nvar}"
            )
        object.__setattr__(
            self, "turbulence", tuple(range(NVAR_EULER, self.nvar))
        )
        object.__setattr__(self, "limited", (self.density, self.energy))


@lru_cache(maxsize=None)
def variable_layout(nvar: int) -> VariableLayout:
    """The :class:`VariableLayout` for an ``nvar``-wide state (frozen,
    a function of the width alone: one instance per width)."""
    return VariableLayout(nvar=int(nvar))


def primitive_to_conservative(prim: np.ndarray) -> np.ndarray:
    """[rho, u, v, w, p, (nu_t)] -> [rho, rho u, ..., rho E, (rho nu_t)]."""
    prim = np.asarray(prim, dtype=np.float64)
    rho = prim[..., 0]
    vel = prim[..., 1:4]
    p = prim[..., 4]
    cons = np.empty_like(prim)
    cons[..., 0] = rho
    cons[..., 1:4] = rho[..., None] * vel
    cons[..., 4] = p / GM1 + 0.5 * rho * np.sum(vel**2, axis=-1)
    if prim.shape[-1] == NVAR_RANS:
        cons[..., 5] = rho * prim[..., 5]
    return cons


def primitive_rows(
    cons: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(rho, u, v, w, p)`` of ``(..., nvar)`` conservative states, one
    contiguous array per component.

    The flux kernels work on these rows: every later operation then
    streams through contiguous memory, and the sums over the three
    velocity components are written out (``u*u + v*v + w*w``) rather
    than reduced over a length-3 axis.
    """
    cons = np.asarray(cons, dtype=np.float64)
    rho = np.array(cons[..., 0])
    inv_rho = 1.0 / rho
    u = cons[..., 1] * inv_rho
    v = cons[..., 2] * inv_rho
    w = cons[..., 3] * inv_rho
    p = GM1 * (cons[..., 4] - 0.5 * rho * (u * u + v * v + w * w))
    return rho, u, v, w, p


def conservative_to_primitive(cons: np.ndarray) -> np.ndarray:
    """Inverse of :func:`primitive_to_conservative`."""
    cons = np.asarray(cons, dtype=np.float64)
    rho, u, v, w, p = primitive_rows(cons)
    prim = np.empty_like(cons)
    prim[..., 0] = rho
    prim[..., 1] = u
    prim[..., 2] = v
    prim[..., 3] = w
    prim[..., 4] = p
    if cons.shape[-1] == NVAR_RANS:
        prim[..., 5] = cons[..., 5] * (1.0 / rho)
    return prim


def pressure(cons: np.ndarray) -> np.ndarray:
    cons = np.asarray(cons)
    mx, my, mz = cons[..., 1], cons[..., 2], cons[..., 3]
    ke = 0.5 * (mx * mx + my * my + mz * mz) / cons[..., 0]
    return GM1 * (cons[..., 4] - ke)


def sound_speed(cons: np.ndarray) -> np.ndarray:
    return np.sqrt(GAMMA * pressure(cons) / np.asarray(cons)[..., 0])


def mach_number(cons: np.ndarray) -> np.ndarray:
    cons = np.asarray(cons)
    speed = np.linalg.norm(cons[..., 1:4] / cons[..., 0:1], axis=-1)
    return speed / sound_speed(cons)


def freestream(
    mach: float,
    alpha_deg: float = 0.0,
    beta_deg: float = 0.0,
    nvar: int = NVAR_EULER,
    nu_t_ratio: float = 3.0,
    nu_lam: float = 1.0,
) -> np.ndarray:
    """Non-dimensional freestream conservative state.

    rho = 1, p = 1/gamma (so a = 1 and |u| = Mach); flow direction from
    angle-of-attack ``alpha`` (x-z plane) and sideslip ``beta`` (x-y).
    For 6-variable states the SA working variable is seeded at
    ``nu_t_ratio * nu_lam`` — the standard SA farfield value is ~3 times
    the laminar kinematic viscosity, so pass the flow's actual ``nu_lam``
    (= mu / rho_inf).
    """
    if mach <= 0:
        raise ValueError("mach must be positive")
    if nvar not in (NVAR_EULER, NVAR_RANS):
        raise ValueError("nvar must be 5 or 6")
    a = np.radians(alpha_deg)
    b = np.radians(beta_deg)
    direction = np.array(
        [np.cos(a) * np.cos(b), np.sin(b), np.sin(a) * np.cos(b)]
    )
    prim = np.zeros(nvar, dtype=np.float64)
    prim[0] = 1.0
    prim[1:4] = mach * direction
    prim[4] = 1.0 / GAMMA
    if nvar == NVAR_RANS:
        prim[5] = nu_t_ratio * nu_lam
    return primitive_to_conservative(prim)


def apply_positivity_floors(
    cons: np.ndarray,
    rho_floor: float = 1e-3,
    p_floor: float = 1e-4,
) -> np.ndarray:
    """Clip density and pressure from below (energy adjusted to match).

    The startup guard both solvers use: impulsive-start transients can
    drive isolated cells unphysical; flooring them keeps the implicit
    iteration alive, and the floors go inactive as the flow establishes.
    Returns a corrected copy only if anything was clipped.
    """
    cons = np.asarray(cons)
    rho_bad = cons[..., 0] < rho_floor
    p = pressure(cons)
    p_bad = p < p_floor
    if not (rho_bad.any() or p_bad.any()):
        return cons
    out = cons.copy()
    out[rho_bad, 0] = rho_floor
    ke = 0.5 * np.sum(out[..., 1:4] ** 2, axis=-1) / out[..., 0]
    p = pressure(out)
    p_bad = p < p_floor
    out[p_bad, 4] = ke[p_bad] + p_floor / GM1
    return out


def check_physical(cons: np.ndarray) -> bool:
    """True when density and pressure are everywhere positive."""
    cons = np.asarray(cons)
    return bool((cons[..., 0] > 0).all() and (pressure(cons) > 0).all())


def total_energy_flux_consistent(cons: np.ndarray) -> np.ndarray:
    """rho H = rho E + p, the enthalpy transported by the flux."""
    return np.asarray(cons)[..., 4] + pressure(cons)
